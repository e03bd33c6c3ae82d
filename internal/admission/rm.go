package admission

import (
	"fmt"

	"repro/internal/fifo"
	"repro/internal/noc"
	"repro/internal/sim"
)

// event is one queued activation/termination at the RM.
type event struct {
	typ MsgType
	app AppRef
}

// RM is the Resource Manager: the centralized scheduling unit with the
// global view of active senders and occupied resources. It serializes
// activation and termination events ("processed in their arrival
// order") and drives the stop/configure cycle for each mode change.
type RM struct {
	sys  *System
	node noc.Coord

	active  map[string]AppRef
	pending fifo.Queue[event]

	reconfiguring bool
	reconfStart   sim.Time
	stopsLeft     int
	confsLeft     int
	current       event
}

func newRM(sys *System, node noc.Coord) *RM {
	return &RM{sys: sys, node: node, active: make(map[string]AppRef)}
}

// Node returns the RM's mesh coordinate.
func (rm *RM) Node() noc.Coord { return rm.node }

// Mode returns the current system mode: the number of active
// applications.
func (rm *RM) Mode() int { return len(rm.active) }

// Active returns the active applications, deterministically ordered.
func (rm *RM) Active() []AppRef {
	out := make([]AppRef, 0, len(rm.active))
	for _, a := range rm.active {
		out = append(out, a)
	}
	sortApps(out)
	return out
}

// handle receives an actMsg or terMsg (invoked on control-packet
// delivery at the RM node).
func (rm *RM) handle(typ MsgType, app AppRef) {
	rm.pending.Push(event{typ, app})
	rm.next()
}

// next starts the following reconfiguration if idle.
func (rm *RM) next() {
	if rm.reconfiguring || rm.pending.Len() == 0 {
		return
	}
	ev := rm.pending.Pop()

	switch ev.typ {
	case ActMsg:
		if _, dup := rm.active[ev.app.Name]; dup {
			rm.sys.stats.Rejected++
			if rm.sys.tel != nil {
				rm.sys.traceReject(ev.app.Name, rm.sys.eng.Now())
			}
			rm.next()
			return
		}
		rm.active[ev.app.Name] = ev.app
		// Analytic admission test (Section IV-A run online): evaluate
		// the post-admission rate assignment before committing.
		if rm.sys.decider != nil {
			if reason := rm.sys.decider.Check(rm.members()); reason != "" {
				delete(rm.active, ev.app.Name)
				rm.sys.stats.Rejected++
				if rm.sys.tel != nil {
					rm.sys.traceReject(ev.app.Name, rm.sys.eng.Now())
				}
				node := ev.app.Node
				name := ev.app.Name
				rm.sys.sendCtrl(rm.node, node, ConfMsg, func() {
					rm.sys.client(node).onReject(name)
				})
				rm.next()
				return
			}
		}
	case TerMsg:
		if _, ok := rm.active[ev.app.Name]; !ok {
			rm.sys.stats.Rejected++
			if rm.sys.tel != nil {
				rm.sys.traceReject(ev.app.Name, rm.sys.eng.Now())
			}
			rm.next()
			return
		}
		delete(rm.active, ev.app.Name)
	default:
		rm.next()
		return
	}

	rm.reconfiguring = true
	rm.current = ev
	rm.reconfStart = rm.sys.eng.Now()
	rm.sys.stats.ModeChanges++

	// Stop phase: block every node hosting an active application (the
	// terminating node needs no stop; it has nothing left to block,
	// but its client still learns the outcome via a conf).
	targets := rm.targetNodes()
	rm.stopsLeft = len(targets)
	if rm.stopsLeft == 0 {
		rm.configure()
		return
	}
	for _, node := range targets {
		node := node
		rm.sys.sendCtrl(rm.node, node, StopMsg, func() {
			rm.sys.client(node).onStop()
			rm.stopDelivered()
		})
	}
}

// members returns the active set as the admission test sees it, in
// name order, with its number of critical applications.
func (rm *RM) members() (out []Member, critical int) {
	for _, a := range rm.Active() {
		out = append(out, Member{Name: a.Name, Crit: a.Crit, Requirement: rm.sys.reqs[a.Name]})
		if a.Crit == Critical {
			critical++
		}
	}
	return out, critical
}

// targetNodes returns the nodes hosting active applications plus the
// node of the event's application (which must be unblocked/informed),
// deduplicated and ordered.
func (rm *RM) targetNodes() []noc.Coord {
	seen := make(map[noc.Coord]bool)
	var out []noc.Coord
	add := func(c noc.Coord) {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	for _, a := range rm.Active() {
		add(a.Node)
	}
	add(rm.current.app.Node)
	return out
}

func (rm *RM) stopDelivered() {
	rm.stopsLeft--
	if rm.stopsLeft == 0 {
		rm.configure()
	}
}

// configure computes the new rates and distributes confMsgs.
func (rm *RM) configure() {
	rates := Rates(rm.sys.policy, rm.Active())
	mode := rm.Mode()
	targets := rm.targetNodes()
	rm.confsLeft = len(targets)
	if rm.confsLeft == 0 {
		rm.finish()
		return
	}
	for _, node := range targets {
		node := node
		rm.sys.sendCtrl(rm.node, node, ConfMsg, func() {
			rm.sys.client(node).onConf(mode, rates)
			rm.confDelivered()
		})
	}
}

func (rm *RM) confDelivered() {
	rm.confsLeft--
	if rm.confsLeft == 0 {
		rm.finish()
	}
}

// finish closes the reconfiguration and accounts its latency.
func (rm *RM) finish() {
	lat := (rm.sys.eng.Now() - rm.reconfStart).Nanoseconds()
	st := &rm.sys.stats
	st.TotalModeLat += lat
	st.TotalModeLatN++
	if lat > st.MaxModeLat {
		st.MaxModeLat = lat
	}
	switch rm.current.typ {
	case ActMsg:
		st.Admitted++
	case TerMsg:
		st.Terminated++
	}
	if rm.sys.tel != nil {
		rm.sys.traceModeChange(rm.current.typ, rm.current.app.Name,
			rm.reconfStart, rm.sys.eng.Now(), rm.Mode())
	}
	rm.reconfiguring = false
	rm.next()
}

// System wires a NoC, one RM, and one client per node.
type System struct {
	eng     *sim.Engine
	mesh    *noc.NoC
	rm      *RM
	policy  RatePolicy
	decider *Decider // nil: no analytic admission test
	reqs    map[string]Requirement
	clients map[noc.Coord]*Client
	stats   Stats
	tel     *telemetryState
}

// NewSystem builds the admission overlay on an existing mesh. The RM
// is placed at rmNode.
func NewSystem(eng *sim.Engine, mesh *noc.NoC, rmNode noc.Coord, policy RatePolicy) (*System, error) {
	if !mesh.InMesh(rmNode) {
		return nil, fmt.Errorf("admission: RM node %v outside mesh", rmNode)
	}
	if policy == nil {
		return nil, fmt.Errorf("admission: nil rate policy")
	}
	s := &System{
		eng:     eng,
		mesh:    mesh,
		policy:  policy,
		clients: make(map[noc.Coord]*Client),
		stats:   Stats{Messages: make(map[MsgType]uint64)},
	}
	s.rm = newRM(s, rmNode)
	return s, nil
}

// RM returns the resource manager.
func (s *System) RM() *RM { return s.rm }

// Stats returns a snapshot of the protocol statistics.
func (s *System) Stats() Stats {
	cp := s.stats
	cp.Messages = make(map[MsgType]uint64, len(s.stats.Messages))
	for k, v := range s.stats.Messages {
		cp.Messages[k] = v
	}
	return cp
}

// Client returns (creating on demand) the supervisor at a node.
func (s *System) Client(at noc.Coord) (*Client, error) {
	if !s.mesh.InMesh(at) {
		return nil, fmt.Errorf("admission: node %v outside mesh", at)
	}
	return s.client(at), nil
}

func (s *System) client(at noc.Coord) *Client {
	c := s.clients[at]
	if c == nil {
		c = newClient(s, at)
		s.clients[at] = c
	}
	return c
}

// sendCtrl ships one protocol message as a real packet over the mesh.
func (s *System) sendCtrl(from, to noc.Coord, typ MsgType, onDelivered func()) {
	s.stats.Messages[typ]++
	ni, err := s.mesh.NI(from)
	if err != nil {
		panic(fmt.Sprintf("admission: control send from bad node: %v", err))
	}
	pkt := &noc.Packet{
		Dst:   to,
		Bytes: ctrlMsgBytes,
		Flow:  "ctrl:" + typ.String(),
		OnDelivered: func(sim.Time) {
			onDelivered()
		},
	}
	if err := ni.Send(pkt); err != nil {
		panic(fmt.Sprintf("admission: control send failed: %v", err))
	}
}
