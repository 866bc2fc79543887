package librarian

import (
	"fmt"

	"teraphim/internal/obs"
)

// segMetrics is an UpdatableLibrarian's instrument set: the
// teraphim_ingest_* family tracks the producer/consumer pipeline and the
// teraphim_segment_* family the manifest shape and merge activity. Loaded
// through an atomic pointer like libMetrics, so instrumentation may be
// attached at any time and costs one nil check when absent.
type segMetrics struct {
	docsQueued   *obs.Counter
	docsIndexed  *obs.Counter
	batches      *obs.Counter
	ingestErrors *obs.Counter
	queueFull    *obs.Counter
	queueLen     *obs.Gauge
	buildSeconds *obs.Histogram

	segmentsLive *obs.Gauge
	docsTotal    *obs.Gauge
	merges       *obs.Counter
	mergeSeconds *obs.Histogram
}

// Instrument registers this librarian's instruments on reg and starts
// recording: the serving series a plain Librarian exports (requests, wire
// bytes, service time, search work), plus the ingest and segment families.
// All series carry a librarian label.
func (u *UpdatableLibrarian) Instrument(reg *obs.Registry) {
	u.served.Store(newLibMetrics(reg, u.name))
	labels := fmt.Sprintf("librarian=%q", u.name)
	m := &segMetrics{
		docsQueued: reg.Counter("teraphim_ingest_docs_queued_total",
			"Documents accepted onto the ingest queue.", labels),
		docsIndexed: reg.Counter("teraphim_ingest_docs_indexed_total",
			"Documents built into published segments.", labels),
		batches: reg.Counter("teraphim_ingest_batches_total",
			"Ingest batches built and published.", labels),
		ingestErrors: reg.Counter("teraphim_ingest_errors_total",
			"Ingest batches whose background build failed.", labels),
		queueFull: reg.Counter("teraphim_ingest_queue_full_total",
			"Ingest calls that found the queue full and had to wait.", labels),
		queueLen: reg.Gauge("teraphim_ingest_queue_depth",
			"Batches currently waiting on the ingest queue.", labels),
		buildSeconds: reg.Histogram("teraphim_ingest_build_seconds",
			"Per-batch segment build time (tokenize, index, compress).", labels, nil),
		segmentsLive: reg.Gauge("teraphim_segment_live",
			"Segments in the current manifest.", labels),
		docsTotal: reg.Gauge("teraphim_segment_docs",
			"Documents across the current manifest.", labels),
		merges: reg.Counter("teraphim_segment_merges_total",
			"Segment merges installed (background tiers and Compact).", labels),
		mergeSeconds: reg.Histogram("teraphim_segment_merge_seconds",
			"Per-merge compaction time.", labels, nil),
	}
	u.metrics.Store(m)
	snap := u.snapshot()
	m.segmentsLive.Set(int64(len(snap.segs)))
	m.docsTotal.Set(int64(snap.total))
}
