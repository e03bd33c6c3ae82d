package telemetry

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// WriteOutput writes a dump to path, with "-" meaning stdout — the
// one shared implementation of the CLI tools' `-metrics`/`-trace`/
// `-json`/`-csv` output convention. Unlike a bare os.Create +
// deferred Close, it reports the error from Close: on a full disk the
// final flush is where truncation surfaces, and swallowing it would
// leave a silently short file.
func WriteOutput(path string, write func(io.Writer) error) error {
	return writeOutput(path, write, defaultCreate, os.Stdout)
}

// defaultCreate is the production file opener behind WriteOutput.
func defaultCreate(path string) (io.WriteCloser, error) { return os.Create(path) }

// writeOutput is WriteOutput with its filesystem seams injected, so
// tests can exercise the close-error and partial-write paths without
// a faulting disk.
func writeOutput(path string, write func(io.Writer) error, create func(string) (io.WriteCloser, error), stdout io.Writer) error {
	if path == "-" {
		return write(stdout)
	}
	f, err := create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		// Close still runs (releasing the descriptor) but the write
		// error is the root cause and is what gets reported.
		f.Close()
		return err
	}
	return f.Close()
}

// DumpFiles writes the suite's metrics (OpenMetrics text) and/or trace
// (Chrome trace_event JSON) to the given paths ("-" for stdout, "" to
// skip), the shape every command-line tool needs after a run. Every
// requested dump is attempted even when an earlier one fails — a bad
// metrics path must not silently skip the trace file — and the
// returned error (via errors.Join) identifies each dump that failed.
func (s *Suite) DumpFiles(metricsPath, tracePath string) error {
	var errs []error
	if metricsPath != "" {
		if err := WriteOutput(metricsPath, s.registry().WriteOpenMetrics); err != nil {
			errs = append(errs, fmt.Errorf("metrics %s: %w", metricsPath, err))
		}
	}
	if tracePath != "" {
		if err := s.WriteTraceFile(tracePath); err != nil {
			errs = append(errs, fmt.Errorf("trace %s: %w", tracePath, err))
		}
	}
	return errors.Join(errs...)
}
