package rmserver

import "repro/internal/admission"

// installDelayBoundCheck arms the simulated RM's online admission
// test: every contracted app's bound through a rate-latency service
// with the given fixed latency, the same service model a platform
// spec's ServiceLatencyNS describes.
func installDelayBoundCheck(sys *admission.System, reqs map[string]admission.Requirement, latencyNS float64) {
	sys.SetAdmissionCheck(reqs, latencyNS)
}
