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

// BenchmarkObsRecordNil measures a nil histogram's Observe: one
// predictable branch. The un-instrumented layers skip even that behind
// their obsOn gate, which also keeps the clock unread.
func BenchmarkObsRecordNil(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
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
