package telemetry

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteOutputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := WriteOutput(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "payload")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "payload" {
		t.Fatalf("file contents = %q", b)
	}
}

func TestWriteOutputPropagatesWriteError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	boom := errors.New("boom")
	if err := WriteOutput(path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestWriteOutputCreateError(t *testing.T) {
	// A directory path cannot be created as a file.
	if err := WriteOutput(t.TempDir(), func(io.Writer) error { return nil }); err == nil {
		t.Fatal("expected create error")
	}
}

// faultyWriteCloser fails writes after a budget of accepted bytes
// and/or fails Close, for exercising writeOutput's error paths.
type faultyWriteCloser struct {
	acceptBytes int // bytes accepted before writes fail; <0 = unlimited
	closeErr    error
	wrote       []byte
	closed      bool
}

func (f *faultyWriteCloser) Write(p []byte) (int, error) {
	if f.acceptBytes >= 0 && len(f.wrote)+len(p) > f.acceptBytes {
		n := f.acceptBytes - len(f.wrote)
		if n < 0 {
			n = 0
		}
		f.wrote = append(f.wrote, p[:n]...)
		return n, errors.New("disk full")
	}
	f.wrote = append(f.wrote, p...)
	return len(p), nil
}

func (f *faultyWriteCloser) Close() error {
	f.closed = true
	return f.closeErr
}

func TestWriteOutputReportsCloseError(t *testing.T) {
	boom := errors.New("close failed: delayed flush")
	fwc := &faultyWriteCloser{acceptBytes: -1, closeErr: boom}
	err := writeOutput("x", func(w io.Writer) error {
		_, err := io.WriteString(w, "payload")
		return err
	}, func(string) (io.WriteCloser, error) { return fwc, nil }, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want close error %v", err, boom)
	}
	if string(fwc.wrote) != "payload" {
		t.Fatalf("wrote %q before close", fwc.wrote)
	}
}

func TestWriteOutputPartialWriteClosesAndReportsWriteError(t *testing.T) {
	closeBoom := errors.New("close also failed")
	fwc := &faultyWriteCloser{acceptBytes: 3, closeErr: closeBoom}
	err := writeOutput("x", func(w io.Writer) error {
		_, err := io.WriteString(w, "payload")
		return err
	}, func(string) (io.WriteCloser, error) { return fwc, nil }, nil)
	if err == nil || err.Error() != "disk full" {
		t.Fatalf("err = %v, want the write error, not the close error", err)
	}
	if !fwc.closed {
		t.Fatal("file was not closed after the failed write")
	}
	if string(fwc.wrote) != "pay" {
		t.Fatalf("partial content = %q, want %q", fwc.wrote, "pay")
	}
}

func TestDumpFilesAttemptsAllAfterFailure(t *testing.T) {
	s := NewSuite(true, 0)
	dir := t.TempDir()
	badMetrics := filepath.Join(dir, "missing-dir", "m.om")
	tracePath := filepath.Join(dir, "t.json")
	err := s.DumpFiles(badMetrics, tracePath)
	if err == nil {
		t.Fatal("expected an error for the metrics path")
	}
	if !strings.Contains(err.Error(), "metrics") {
		t.Fatalf("error does not identify the metrics dump: %v", err)
	}
	// The trace dump must still have been written.
	if st, err := os.Stat(tracePath); err != nil || st.Size() == 0 {
		t.Fatalf("trace file skipped after metrics failure (err=%v)", err)
	}
}

func TestDumpFilesJoinsAllFailures(t *testing.T) {
	s := NewSuite(true, 0)
	dir := t.TempDir()
	badM := filepath.Join(dir, "no-such", "m.om")
	badT := filepath.Join(dir, "no-such", "t.json")
	err := s.DumpFiles(badM, badT)
	if err == nil {
		t.Fatal("expected errors")
	}
	for _, want := range []string{"metrics", "trace"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("joined error missing %q: %v", want, err)
		}
	}
}

func TestDumpFilesFormatOpenMetrics(t *testing.T) {
	s := NewSuite(false, 0)
	s.Registry.Counter("a.b").Inc()
	path := filepath.Join(t.TempDir(), "m.om")
	if err := s.DumpFiles(path, ""); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "a_b_total 1\n") || !strings.HasSuffix(string(b), "# EOF\n") {
		t.Fatalf("unexpected OpenMetrics dump:\n%s", b)
	}
}

func TestDumpFilesNilAndEmpty(t *testing.T) {
	s := NewSuite(true, 0)
	dir := t.TempDir()
	if err := s.DumpFiles("", ""); err != nil {
		t.Fatalf("empty paths: %v", err)
	}
	m := filepath.Join(dir, "m.om")
	tr := filepath.Join(dir, "t.json")
	if err := s.DumpFiles(m, tr); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{m, tr} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("dump %s missing or empty (err=%v)", p, err)
		}
	}
}
