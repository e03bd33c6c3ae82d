package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// Files inside a store directory.
const (
	// storeFile is the append-only record log.
	storeFile = "runs.jsonl"
	// seqFile holds the next sequence number to hand out. It is only
	// read and written under the store lock, and is written *before*
	// the record it numbers, so a crash between the two leaves a gap
	// in the sequence — never a duplicate.
	seqFile = "seq"
	// lockFile serializes writers (and Open-time repair) across
	// processes.
	lockFile = "lock"
)

// Store is the embedded results store: a directory holding an
// append-only JSONL log of RunRecords. It is pure Go (no cgo, no
// external database), safe for concurrent use within one process, and
// durable per append — each record is one fsync-free O_APPEND write
// of one line, so a crashed run loses at most the record being
// written, never the history. A torn final line left behind by such a
// crash is repaired on the next Open: a parseable tail missing only
// its newline is kept (the newline is restored), an unparseable tail
// is truncated away, and either outcome is reported via Recovery.
// Corruption anywhere *before* the final line is not crash damage and
// still fails Open hard. Query tolerates a torn final line without
// repairing it, because a tail mid-write by a live process looks the
// same as crash damage from the outside.
//
// Multiple processes may append to the same store: appends (and
// Open-time repair) are serialized by a lock file, and sequence
// numbers are reserved through a sidecar counter under that lock, so
// Seq is unique and strictly increasing across processes and equals
// append order. On platforms without file locking the fallback
// serializes writers within one process only — see flock_other.go.
type Store struct {
	dir  string
	path string

	mu       sync.Mutex
	closed   bool
	next     int64
	now      func() int64
	recovery Recovery
}

// Recovery reports what Open had to repair to bring the log back to a
// clean state. Zero when the log was already clean.
type Recovery struct {
	// Recovered counts repaired tail incidents (0 or 1: only the
	// final line can legally be torn).
	Recovered int
	// Dropped counts torn-tail bytes truncated away because they did
	// not parse; 0 when the tail record was salvageable.
	Dropped int
	// Message is a human-readable description of the repair.
	Message string
}

// Option configures a Store.
type Option func(*Store)

// WithClock overrides the wall clock stamped into RecordedUnix —
// deterministic tests pin it.
func WithClock(now func() int64) Option {
	return func(s *Store) { s.now = now }
}

// Open opens (creating if needed) the store rooted at dir, repairing
// a torn final line (a crashed writer's remnant) if one is present.
func Open(dir string, opts ...Option) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("obs: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: open store: %w", err)
	}
	s := &Store{
		dir:  dir,
		path: filepath.Join(dir, storeFile),
		now:  func() int64 { return time.Now().Unix() },
	}
	for _, o := range opts {
		o(s)
	}
	// Load and repair under the store lock: a tail that looks torn
	// while the lock is held cannot be a live writer mid-append
	// (writers hold the lock across the write), so it is safe to
	// truncate.
	unlock, err := lockDir(dir)
	if err != nil {
		return nil, fmt.Errorf("obs: lock store: %w", err)
	}
	recs, torn, err := s.load()
	if err != nil {
		unlock()
		return nil, err
	}
	if torn != nil {
		if err := s.repair(torn); err != nil {
			unlock()
			return nil, err
		}
		if torn.rec != nil {
			recs = append(recs, *torn.rec)
		}
	}
	unlock()
	if s.next, err = nextSeq(recs); err != nil {
		return nil, err
	}
	return s, nil
}

// repair fixes a torn final line in place: a salvageable record gets
// its missing newline restored; an unparseable tail is truncated at
// the start of the torn line.
func (s *Store) repair(t *tornTail) error {
	if t.rec != nil {
		f, err := os.OpenFile(s.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("obs: repair torn tail: %w", err)
		}
		_, werr := f.Write([]byte{'\n'})
		cerr := f.Close()
		if werr != nil {
			return fmt.Errorf("obs: repair torn tail: %w", werr)
		}
		if cerr != nil {
			return fmt.Errorf("obs: repair torn tail: %w", cerr)
		}
		s.recovery = Recovery{
			Recovered: 1,
			Message: fmt.Sprintf("%s:%d: restored missing newline on final record",
				s.path, t.line),
		}
		return nil
	}
	if err := os.Truncate(s.path, t.off); err != nil {
		return fmt.Errorf("obs: truncate torn tail: %w", err)
	}
	s.recovery = Recovery{
		Recovered: 1,
		Dropped:   t.size,
		Message: fmt.Sprintf("%s:%d: dropped torn final line (%d bytes, crashed writer): %v",
			s.path, t.line, t.size, t.err),
	}
	return nil
}

// Recovery reports what Open repaired (zero when the log was clean).
func (s *Store) Recovery() Recovery { return s.recovery }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close ends the handle. Appends and prunes after Close fail.
func (s *Store) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return nil
}

// Append stamps the record (schema version, sequence number, recorded
// time, metrics fingerprint) and persists it. The stamped record is
// returned. The sequence number is reserved through the store's
// on-disk counter under the cross-process lock, so concurrent handles
// — including handles in other processes — never stamp duplicates,
// and file order equals Seq order. The log is opened for each append,
// under that lock, so an append lands in the file another handle's
// Prune renamed into place, not in the unlinked log it replaced.
func (s *Store) Append(rec RunRecord) (RunRecord, error) {
	rec.Schema = SchemaVersion
	if rec.Metrics != "" && rec.MetricsFP == "" {
		rec.MetricsFP = Fingerprint([]byte(rec.Metrics))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return rec, fmt.Errorf("obs: append on closed store")
	}
	unlock, err := lockDir(s.dir)
	if err != nil {
		return rec, fmt.Errorf("obs: lock store: %w", err)
	}
	defer unlock()
	seq, err := s.reserveSeqLocked()
	if err != nil {
		return rec, err
	}
	rec.Seq = seq
	rec.RecordedUnix = s.now()
	line, err := json.Marshal(rec)
	if err != nil {
		return rec, fmt.Errorf("obs: encode record: %w", err)
	}
	line = append(line, '\n')
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return rec, fmt.Errorf("obs: open store log: %w", err)
	}
	_, werr := f.Write(line)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return rec, fmt.Errorf("obs: append record: %w", werr)
	}
	s.next = seq + 1
	return rec, nil
}

// Prune drops everything but the newest keep records (by append
// order), rewriting the log atomically: the survivors are written to a
// temporary file in the store directory, fsynced, and renamed over
// runs.jsonl while both the handle mutex and the cross-process lock
// are held. The seq sidecar is untouched — surviving records keep
// their stamped Seq and the next Append continues from the counter, so
// Seq stays unique and strictly increasing across the prune. A
// salvageable torn tail counts as a record (and is kept or dropped by
// age like any other); an unparseable torn tail is rewritten away.
// Returns the number of records removed.
func (s *Store) Prune(keep int) (int, error) {
	if keep < 0 {
		return 0, fmt.Errorf("obs: prune keep %d, want >= 0", keep)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("obs: prune on closed store")
	}
	unlock, err := lockDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("obs: lock store: %w", err)
	}
	defer unlock()

	recs, torn, err := s.load()
	if err != nil {
		return 0, err
	}
	if torn != nil && torn.rec != nil {
		recs = append(recs, *torn.rec)
	}
	if len(recs) <= keep && (torn == nil || torn.rec != nil) {
		// Nothing to drop and no garbage tail to scrub: leave the file
		// byte-identical rather than rewriting it for nothing.
		return 0, nil
	}
	kept := recs
	if len(recs) > keep {
		kept = recs[len(recs)-keep:]
	}

	tmp, err := os.CreateTemp(s.dir, storeFile+".prune-*")
	if err != nil {
		return 0, fmt.Errorf("obs: prune: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	bw := bufio.NewWriterSize(tmp, 64*1024)
	for _, r := range kept {
		line, merr := json.Marshal(r)
		if merr != nil {
			tmp.Close()
			return 0, fmt.Errorf("obs: prune encode: %w", merr)
		}
		line = append(line, '\n')
		if _, werr := bw.Write(line); werr != nil {
			tmp.Close()
			return 0, fmt.Errorf("obs: prune write: %w", werr)
		}
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("obs: prune write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("obs: prune sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return 0, fmt.Errorf("obs: prune close: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path); err != nil {
		return 0, fmt.Errorf("obs: prune rename: %w", err)
	}
	return len(recs) - len(kept), nil
}

// reserveSeqLocked hands out the next sequence number. Caller holds
// both the handle mutex and the cross-process lock. The counter file
// is advanced *before* the record is written: a crash in between
// leaves an unused number (a gap), which is harmless, instead of a
// duplicate, which would corrupt newest-run selection.
func (s *Store) reserveSeqLocked() (int64, error) {
	next := s.next
	b, err := os.ReadFile(filepath.Join(s.dir, seqFile))
	switch {
	case err == nil:
		v, perr := strconv.ParseInt(string(bytes.TrimSpace(b)), 10, 64)
		if perr != nil || v == math.MaxInt64 {
			// A counter that does not parse, or cannot advance past
			// the number it hands out, is corrupt: rebuild it from the
			// log (rare path).
			recs, _, lerr := s.load()
			if lerr != nil {
				return 0, fmt.Errorf("obs: rebuild seq counter: %w", lerr)
			}
			if v, err = nextSeq(recs); err != nil {
				return 0, err
			}
		}
		next = max(next, v)
	case os.IsNotExist(err):
		// First writer since the counter existed: the handle's view
		// (derived from the log at Open) is authoritative.
	default:
		return 0, fmt.Errorf("obs: read seq counter: %w", err)
	}
	if next == math.MaxInt64 {
		// The counter stores next+1, which would wrap.
		return 0, errSeqExhausted
	}
	if err := os.WriteFile(filepath.Join(s.dir, seqFile),
		strconv.AppendInt(nil, next+1, 10), 0o644); err != nil {
		return 0, fmt.Errorf("obs: advance seq counter: %w", err)
	}
	return next, nil
}

// errSeqExhausted reports a store whose sequence numbers have reached
// MaxInt64: the next one would wrap negative and break the unique,
// ordered Seqs that newest-run selection relies on.
var errSeqExhausted = errors.New("obs: sequence numbers exhausted")

// nextSeq returns the Seq that follows every record of the log (1 for
// an empty one), or errSeqExhausted when a record already holds
// MaxInt64.
func nextSeq(recs []RunRecord) (int64, error) {
	var last int64
	for _, r := range recs {
		last = max(last, r.Seq)
	}
	if last == math.MaxInt64 {
		return 0, errSeqExhausted
	}
	return last + 1, nil
}

// tornTail describes a final line that does not end in a clean,
// parseable record — the signature of a writer that crashed
// mid-append.
type tornTail struct {
	off  int64      // byte offset where the torn line starts
	size int        // torn line length in bytes
	line int        // 1-based line number
	err  error      // parse failure (nil when rec is salvageable)
	rec  *RunRecord // parsed record when only the newline is missing
}

// load reads every record in append order. An unparseable or
// newline-less *final* line is returned as a tornTail, not an error —
// that is exactly what a crash mid-Write leaves behind, and the
// documented durability contract is "a crashed run loses at most the
// record being written, never the history". Unparseable lines
// anywhere earlier are still a hard error: interior corruption cannot
// come from a torn append, and silent skips would hide it.
func (s *Store) load() ([]RunRecord, *tornTail, error) {
	f, err := os.Open(s.path)
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("obs: read store: %w", err)
	}
	defer f.Close()
	var recs []RunRecord
	br := bufio.NewReaderSize(f, 64*1024)
	var off int64
	n := 0
	for {
		line, rerr := br.ReadBytes('\n')
		if len(line) == 0 {
			if rerr == io.EOF {
				return recs, nil, nil
			}
			if rerr != nil {
				return nil, nil, fmt.Errorf("obs: %s: %w", s.path, rerr)
			}
		}
		n++
		complete := rerr == nil // line ended with '\n'
		body := line
		if complete {
			body = line[:len(line)-1]
		}
		if len(body) == 0 {
			off += int64(len(line))
			continue
		}
		var r RunRecord
		jerr := json.Unmarshal(body, &r)
		switch {
		case jerr == nil && complete:
			recs = append(recs, r)
		case jerr == nil && !complete:
			// Final line, parseable, newline missing: the record made
			// it out whole; only the terminator was lost.
			return recs, &tornTail{off: off, size: len(line), line: n, rec: &r}, nil
		case !complete:
			// Final line, unparseable: torn append.
			return recs, &tornTail{off: off, size: len(line), line: n, err: jerr}, nil
		default:
			// Unparseable but newline-terminated: a torn append never
			// writes its trailing newline (it is the line's last
			// byte), so this is real corruption wherever it sits —
			// hard error, even at the tail.
			return nil, nil, fmt.Errorf("obs: %s:%d: %w", s.path, n, jerr)
		}
		off += int64(len(line))
	}
}

// Filter selects records. The zero Filter matches everything.
type Filter struct {
	// Kind/Label/ConfigFP match exactly when non-empty.
	Kind     string
	Label    string
	ConfigFP string
	// Seed matches when non-nil.
	Seed *uint64
	// Since/Until bound RecordedUnix inclusively when non-zero.
	Since, Until int64
	// Failed selects only failure records; OK selects only successes.
	Failed, OK bool
	// LastN keeps only the newest N matches (0 = all).
	LastN int
}

// matches applies every non-zero predicate.
func (f Filter) matches(r RunRecord) bool {
	if f.Kind != "" && r.Kind != f.Kind {
		return false
	}
	if f.Label != "" && r.Label != f.Label {
		return false
	}
	if f.ConfigFP != "" && r.ConfigFP != f.ConfigFP {
		return false
	}
	if f.Seed != nil && r.Seed != *f.Seed {
		return false
	}
	if f.Since != 0 && r.RecordedUnix < f.Since {
		return false
	}
	if f.Until != 0 && r.RecordedUnix > f.Until {
		return false
	}
	if f.Failed && !r.Failed() {
		return false
	}
	if f.OK && r.Failed() {
		return false
	}
	return true
}

// Query returns the matching records in append order (oldest first),
// re-reading the log so appends from other handles — and other
// processes — are visible. Append order is the store's authoritative
// ordering axis (equal to Seq order; newest-run selection in the
// sentinel and Series rely on it). A torn final line is tolerated: a
// salvageable record is included, an unparseable tail is skipped —
// it is either a crash remnant (repaired by the next Open) or a live
// writer's append in flight.
func (s *Store) Query(f Filter) ([]RunRecord, error) {
	recs, torn, err := s.load()
	if err != nil {
		return nil, err
	}
	if torn != nil && torn.rec != nil {
		recs = append(recs, *torn.rec)
	}
	out := recs[:0]
	for _, r := range recs {
		if f.matches(r) {
			out = append(out, r)
		}
	}
	if f.LastN > 0 && len(out) > f.LastN {
		out = out[len(out)-f.LastN:]
	}
	return append([]RunRecord(nil), out...), nil
}

// Series extracts one metric's trajectory from the matching records in
// append order. Records without the metric are skipped, so the series
// is dense.
func (s *Store) Series(metric string, f Filter) ([]float64, error) {
	recs, err := s.Query(f)
	if err != nil {
		return nil, err
	}
	var out []float64
	for _, r := range recs {
		if v, ok := r.Value(metric); ok {
			out = append(out, v)
		}
	}
	return out, nil
}

// Labels returns the distinct (kind, label) pairs present in the
// matching records, in first-appearance order — the sentinel's
// grouping axis.
func (s *Store) Labels(f Filter) ([][2]string, error) {
	recs, err := s.Query(f)
	if err != nil {
		return nil, err
	}
	seen := make(map[[2]string]bool)
	var out [][2]string
	for _, r := range recs {
		k := [2]string{r.Kind, r.Label}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out, nil
}
