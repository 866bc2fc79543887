package librarian

import (
	"fmt"
	"time"

	"teraphim/internal/obs"
	"teraphim/internal/protocol"
	"teraphim/internal/search"
)

// libMetrics is one librarian's instrument set. ServeConn loads it through
// an atomic pointer once per session, so Instrument may be called before or
// after serving starts and an uninstrumented librarian pays a single atomic
// load per session.
type libMetrics struct {
	activeSessions *obs.Gauge
	requests       *obs.Counter
	bytesIn        *obs.Counter
	bytesOut       *obs.Counter
	serviceTime    *obs.Histogram
	search         *search.Metrics
}

// observe records one answered request. Safe on a nil receiver — the
// serving loops call it unconditionally.
func (m *libMetrics) observe(read, wrote int, start time.Time, reply protocol.Message) {
	if m == nil {
		return
	}
	m.requests.Inc()
	m.bytesIn.Add(uint64(read))
	m.bytesOut.Add(uint64(wrote))
	m.serviceTime.ObserveDuration(time.Since(start))
	switch r := reply.(type) {
	case *protocol.RankReply:
		m.search.Observe(r.Stats)
	case *protocol.BooleanReply:
		m.search.Observe(r.Stats)
	case *protocol.BatchReply:
		for _, it := range r.Items {
			if rr, ok := it.(*protocol.RankReply); ok {
				m.search.Observe(rr.Stats)
			}
		}
	}
}

// Instrument registers this librarian's instruments on reg and starts
// recording: active sessions, request count, wire bytes in/out, per-request
// service time (read-to-write-complete), and the evaluation work behind
// rank/score/boolean replies (postings decoded, candidates scored). All
// series carry a librarian label, so several librarians can share one
// registry — the deployment the paper's receptionist federates over.
func (l *Librarian) Instrument(reg *obs.Registry) {
	l.metrics.Store(newLibMetrics(reg, l.name))
}

// newLibMetrics registers the teraphim_librarian_* and per-librarian search
// series for the librarian called name.
func newLibMetrics(reg *obs.Registry, name string) *libMetrics {
	labels := fmt.Sprintf("librarian=%q", name)
	return &libMetrics{
		activeSessions: reg.Gauge("teraphim_librarian_active_sessions",
			"Protocol sessions currently being served.", labels),
		requests: reg.Counter("teraphim_librarian_requests_total",
			"Protocol requests answered (including ErrorReply answers).", labels),
		bytesIn: reg.Counter("teraphim_librarian_bytes_in_total",
			"Request bytes read off the wire.", labels),
		bytesOut: reg.Counter("teraphim_librarian_bytes_out_total",
			"Reply bytes written to the wire.", labels),
		serviceTime: reg.Histogram("teraphim_librarian_request_seconds",
			"Per-request service time: evaluation plus reply write.", labels, nil),
		search: search.NewMetrics(reg, labels),
	}
}
