//go:build race

package core

// The race detector's instrumentation turns off the compiler's
// append-of-make optimization, so bytes.Buffer.Grow allocates its new
// buffer twice and allocation budgets that render into one do not hold.
func init() { raceEnabled = true }
