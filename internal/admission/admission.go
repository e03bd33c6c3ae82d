// Package admission implements the end-to-end admission control
// architecture of Section V of the paper (Figs. 6 and 7): a control
// layer decoupled from the data layer, built from per-node supervisors
// (clients) and a central Resource Manager (RM).
//
// Clients trap an application's first transmission, hold its traffic
// until the RM admits it, enforce the RM-assigned injection rate with
// a token-bucket shaper, report termination, and block traffic during
// mode changes. The RM has the global view: each activation or
// termination moves the system to a new mode (the number of active
// applications), and the RM re-derives every application's injection
// rate from the configured policy — symmetric (uniform degradation
// with rising mode) or non-symmetric (criticality-aware, preserving
// guarantees for critical applications while squeezing best effort).
//
// All four protocol messages (actMsg, terMsg, stopMsg, confMsg) travel
// as real packets through the internal/noc fabric, so protocol
// overhead and mode-change latency are measured, not assumed.
package admission

import (
	"fmt"
	"sort"

	"repro/internal/noc"
)

// Criticality classifies an application for non-symmetric policies.
type Criticality int

// Criticality levels.
const (
	BestEffort Criticality = iota
	Critical
)

// String implements fmt.Stringer.
func (c Criticality) String() string {
	if c == Critical {
		return "critical"
	}
	return "best-effort"
}

// AppRef identifies a registered application and where it runs.
type AppRef struct {
	Name string
	Node noc.Coord
	Crit Criticality
}

// RatePolicy derives the injection rates (bytes/ns) of a mode from its
// class mix: every critical application gets one rate and every
// best-effort application another.
type RatePolicy interface {
	Name() string
	// ClassRates returns the critical and best-effort rates of a mode
	// of `mode` active applications, `critical` of them critical.
	ClassRates(mode, critical int) (critRate, beRate float64)
}

// Symmetric shares the budget uniformly: every active application gets
// TotalBytesPerNS / mode, the paper's "symmetric guarantees where
// transmission rates decrease uniformly ... along with the increasing
// number of senders" (Fig. 7).
type Symmetric struct {
	TotalBytesPerNS float64
}

// Name implements RatePolicy.
func (Symmetric) Name() string { return "symmetric" }

// ClassRates implements RatePolicy.
func (p Symmetric) ClassRates(mode, _ int) (critRate, beRate float64) {
	if mode == 0 {
		return 0, 0
	}
	r := p.TotalBytesPerNS / float64(mode)
	return r, r
}

// NonSymmetric preserves critical applications' guaranteed rate and
// divides the remaining budget among best-effort applications — the
// paper's mixed-criticality mode: "maintain the critical application
// guarantees while reducing best effort traffic".
type NonSymmetric struct {
	TotalBytesPerNS    float64
	CriticalBytesPerNS float64
	// FloorBytesPerNS keeps best-effort applications from starving
	// entirely (0 permits full starvation).
	FloorBytesPerNS float64
}

// Name implements RatePolicy.
func (NonSymmetric) Name() string { return "non-symmetric" }

// ClassRates implements RatePolicy.
func (p NonSymmetric) ClassRates(mode, critical int) (critRate, beRate float64) {
	if be := mode - critical; be > 0 {
		beRate = (p.TotalBytesPerNS - float64(critical)*p.CriticalBytesPerNS) / float64(be)
	}
	if beRate < p.FloorBytesPerNS {
		beRate = p.FloorBytesPerNS
	}
	return p.CriticalBytesPerNS, beRate
}

// classRate picks an application's rate out of its mode's class rates.
func classRate(c Criticality, critRate, beRate float64) float64 {
	if c == Critical {
		return critRate
	}
	return beRate
}

// Rates assigns every application of an active set its rate under p,
// keyed by application name: the assignment the RM's confMsg carries.
func Rates(p RatePolicy, active []AppRef) map[string]float64 {
	critical := 0
	for _, a := range active {
		if a.Crit == Critical {
			critical++
		}
	}
	critRate, beRate := p.ClassRates(len(active), critical)
	out := make(map[string]float64, len(active))
	for _, a := range active {
		out[a.Name] = classRate(a.Crit, critRate, beRate)
	}
	return out
}

// MsgType enumerates the protocol messages.
type MsgType int

// The four control messages of the protocol (Section V).
const (
	ActMsg  MsgType = iota // client -> RM: application activated
	TerMsg                 // client -> RM: application terminated
	StopMsg                // RM -> client: block accesses for a mode change
	ConfMsg                // RM -> client: new mode and rates; unblock
)

// String implements fmt.Stringer.
func (m MsgType) String() string {
	switch m {
	case ActMsg:
		return "actMsg"
	case TerMsg:
		return "terMsg"
	case StopMsg:
		return "stopMsg"
	case ConfMsg:
		return "confMsg"
	}
	return fmt.Sprintf("msg(%d)", int(m))
}

// ctrlMsgBytes is the size of a control packet on the NoC.
const ctrlMsgBytes = 8

// Stats aggregates protocol and mode-change behaviour.
type Stats struct {
	Messages      map[MsgType]uint64
	ModeChanges   uint64
	Admitted      uint64
	Terminated    uint64
	Rejected      uint64
	TotalModeLatN uint64  // completed reconfigurations measured
	TotalModeLat  float64 // summed ns
	MaxModeLat    float64 // ns
}

// MeanModeChangeLatencyNS reports the average stop-to-conf-complete
// reconfiguration latency.
func (s Stats) MeanModeChangeLatencyNS() float64 {
	if s.TotalModeLatN == 0 {
		return 0
	}
	return s.TotalModeLat / float64(s.TotalModeLatN)
}

// sortApps orders an active set deterministically.
func sortApps(apps []AppRef) {
	sort.Slice(apps, func(i, j int) bool { return apps[i].Name < apps[j].Name })
}
