package netcalc

// Test-only access for the external tests: the general convolution
// path, the convexity check that chooses between it and the closed
// form, bit-exact curve identity, and a cache's memoized convolutions.

var (
	ConvolveEnvelope = convolveEnvelope
	IsConvex         = isConvex
)

// Identical reports bit-exact structural equality of two curves.
func Identical(c, d Curve) bool { return c.identical(d) }

// Convolutions returns every convolution c holds, oldest first, as
// {left operand, right operand, stored result}.
func (c *Cache) Convolutions() [][3]Curve {
	c.mu.Lock()
	defer c.mu.Unlock()
	byID := make(map[uint64]Curve)
	for _, bucket := range c.in.buckets {
		for _, e := range bucket {
			byID[e.id] = e.c
		}
	}
	var out [][3]Curve
	for e := c.tail; e != nil; e = e.prev {
		if e.op == opConvolve {
			out = append(out, [3]Curve{e.a.c, byID[e.b], e.curve})
		}
	}
	return out
}
