package obs

import "testing"

// BenchmarkObsRecord is the acceptance bar for the recording hot path:
// Histogram.Observe must be a single atomic add — single-digit
// nanoseconds, zero allocations.
func BenchmarkObsRecord(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

// BenchmarkObsRecordNil measures the un-instrumented path: a nil handle
// must cost one predictable branch.
func BenchmarkObsRecordNil(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

// BenchmarkObsCounterInc measures the counter path used by the
// per-request accounting.
func BenchmarkObsCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkObsSlowLogRecord measures the per-request SlowLog path:
// one lock and one trace copy into a full ring.
func BenchmarkObsSlowLogRecord(b *testing.B) {
	l := NewSlowLog(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Record(QueryTrace{TotalNS: int64(i & 1023)})
	}
}
