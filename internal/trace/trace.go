// Package trace provides deterministic, seeded workload generators for
// the platform experiments: memory access patterns (sequential,
// strided, random) and automotive-flavoured presets matching the
// application classes the paper's introduction motivates — vision
// pipelines, control loops, and best-effort "app-like" software.
package trace

import (
	"fmt"

	"repro/internal/sim"
)

// Pattern generates a deterministic address stream.
type Pattern interface {
	// Next returns the next address to access.
	Next() uint64
	// Reset restarts the stream from the beginning.
	Reset()
}

// Sequential walks an address range in line-sized steps, wrapping at
// the end — a streaming/DMA-style access pattern with high row-buffer
// and cache locality.
type Sequential struct {
	Base   uint64
	Size   uint64
	Stride uint64
	off    uint64
}

// NewSequential builds a sequential pattern over [base, base+size).
func NewSequential(base, size, stride uint64) (*Sequential, error) {
	s, err := sequential(base, size, stride)
	if err != nil {
		return nil, err
	}
	return &s, nil
}

func sequential(base, size, stride uint64) (Sequential, error) {
	if size == 0 || stride == 0 || stride > size {
		return Sequential{}, fmt.Errorf("trace: sequential needs 0 < stride <= size")
	}
	return Sequential{Base: base, Size: size, Stride: stride}, nil
}

// Next implements Pattern.
func (s *Sequential) Next() uint64 {
	a := s.Base + s.off
	s.off += s.Stride
	if s.off >= s.Size {
		s.off = 0
	}
	return a
}

// Reset implements Pattern.
func (s *Sequential) Reset() { s.off = 0 }

// Strided jumps by a large stride each access — the cache-hostile,
// row-hostile pattern that maximizes conflict misses.
type Strided struct {
	Base   uint64
	Size   uint64
	Stride uint64
	off    uint64
}

// NewStrided builds a strided pattern (stride typically >= page size).
func NewStrided(base, size, stride uint64) (*Strided, error) {
	if size == 0 || stride == 0 {
		return nil, fmt.Errorf("trace: strided needs positive size and stride")
	}
	return &Strided{Base: base, Size: size, Stride: stride}, nil
}

// Next implements Pattern.
func (s *Strided) Next() uint64 {
	a := s.Base + s.off
	s.off = (s.off + s.Stride) % s.Size
	return a
}

// Reset implements Pattern.
func (s *Strided) Reset() { s.off = 0 }

// Random draws uniformly from an aligned range, seeded.
type Random struct {
	Base  uint64
	Size  uint64
	Align uint64
	seed  uint64
	rnd   sim.Rand
}

// NewRandom builds a random pattern over [base, base+size), aligned.
func NewRandom(base, size, align uint64, seed uint64) (*Random, error) {
	r, err := random(base, size, align, seed)
	if err != nil {
		return nil, err
	}
	return &r, nil
}

func random(base, size, align uint64, seed uint64) (Random, error) {
	if size == 0 || align == 0 || align > size {
		return Random{}, fmt.Errorf("trace: random needs 0 < align <= size")
	}
	return Random{Base: base, Size: size, Align: align, seed: seed, rnd: *sim.NewRand(seed)}, nil
}

// Next implements Pattern.
func (r *Random) Next() uint64 {
	slots := r.Size / r.Align
	return r.Base + (r.rnd.Uint64()%slots)*r.Align
}

// Reset implements Pattern.
func (r *Random) Reset() { r.rnd = *sim.NewRand(r.seed) }

// WorkloadClass names the automotive application classes from the
// paper's introduction.
type WorkloadClass int

// Workload classes.
const (
	// ControlLoop is a small, periodic, latency-critical workload
	// (e.g. an ASIL-D vehicle-motion controller).
	ControlLoop WorkloadClass = iota
	// VisionPipeline streams large frames (automated-driving
	// perception): high bandwidth, sequential.
	VisionPipeline
	// Infotainment is bursty, cache-hungry best-effort software.
	Infotainment
)

// String implements fmt.Stringer.
func (w WorkloadClass) String() string {
	switch w {
	case ControlLoop:
		return "control-loop"
	case VisionPipeline:
		return "vision-pipeline"
	case Infotainment:
		return "infotainment"
	}
	return fmt.Sprintf("class(%d)", int(w))
}

// Profile bundles a pattern with its request shape and cadence.
type Profile struct {
	Class WorkloadClass
	Pattern
	// ReqBytes per access; Think is the compute gap between an
	// access's completion and the next issue; WriteEvery makes each
	// k-th access a write (0 = reads only).
	ReqBytes   int
	Think      sim.Duration
	WriteEvery int
}

// NewProfile builds the canonical profile for a class, seeded for the
// random components. Base separates address spaces per application.
func NewProfile(class WorkloadClass, base uint64, seed uint64) (*Profile, error) {
	return NewProfiles(class, 1).New(base, seed)
}

// Profiles builds profiles of one class from arrays sized once: n
// apps' profiles and their patterns cost one allocation per kind, not
// one or two each.
type Profiles struct {
	class    WorkloadClass
	profiles []Profile
	seqs     []Sequential
	rands    []Random
}

// NewProfiles reserves room for n profiles of class.
func NewProfiles(class WorkloadClass, n int) *Profiles {
	ps := &Profiles{class: class, profiles: make([]Profile, 0, n)}
	switch class {
	case ControlLoop, VisionPipeline:
		ps.seqs = make([]Sequential, 0, n)
	case Infotainment:
		ps.rands = make([]Random, 0, n)
	}
	return ps
}

// New builds the class's canonical profile, as NewProfile does. Past
// the reserved n it starts a fresh array of the same size; a profile
// handed out never moves.
func (ps *Profiles) New(base uint64, seed uint64) (*Profile, error) {
	p := Profile{Class: ps.class}
	switch ps.class {
	case ControlLoop:
		// 32 KiB working set, line-sized accesses, 1us control step.
		s, err := sequential(base, 32<<10, 64)
		if err != nil {
			return nil, err
		}
		p.Pattern = take(&ps.seqs, s)
		p.ReqBytes, p.Think, p.WriteEvery = 64, sim.Microsecond, 4
	case VisionPipeline:
		// 4 MiB frames streamed in 256B beats, back to back.
		s, err := sequential(base, 4<<20, 256)
		if err != nil {
			return nil, err
		}
		p.Pattern = take(&ps.seqs, s)
		p.ReqBytes, p.Think = 256, sim.NS(50)
	case Infotainment:
		// 8 MiB random working set, cache hostile, modest think time.
		r, err := random(base, 8<<20, 64, seed)
		if err != nil {
			return nil, err
		}
		p.Pattern = take(&ps.rands, r)
		p.ReqBytes, p.Think, p.WriteEvery = 64, sim.NS(200), 3
	default:
		return nil, fmt.Errorf("trace: unknown workload class %d", ps.class)
	}
	return take(&ps.profiles, p), nil
}

// take stores v in the next free element of *slab and returns its
// address. A full slab is replaced by a fresh one of the same capacity,
// never grown in place, so no element handed out is copied.
func take[T any](slab *[]T, v T) *T {
	if len(*slab) == cap(*slab) {
		*slab = make([]T, 0, max(cap(*slab), 1))
	}
	*slab = append(*slab, v)
	return &(*slab)[len(*slab)-1]
}
