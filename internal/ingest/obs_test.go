package ingest_test

import (
	"testing"

	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/obs"
)

// TestIngestObsAccounting pins the write-path instrumentation: with a
// registry wired, posts, seals, compactions and segment levels surface
// as rows and the ingest latency histogram records once per post —
// without changing what the index serves.
func TestIngestObsAccounting(t *testing.T) {
	p, _ := testPipeline(t)
	reg := obs.NewRegistry()
	idx := ingest.New(p.Corpus, ingest.Config{SealThreshold: 8, CompactFanIn: 2, Obs: reg})
	defer idx.Close()

	const posts = 40 // 5 seals at threshold 8, with fan-in 2 compactions behind them
	stream := microblog.NewPostStream(p.World, microblog.DefaultStreamConfig(11))
	for i := 0; i < posts; i++ {
		idx.Ingest(stream.Next())
	}
	idx.Quiesce()

	rows := map[string]int64{}
	for _, m := range reg.Snapshot() {
		rows[m.Name] = m.Value
	}
	if rows["ingest_posts"] != posts {
		t.Errorf("ingest_posts = %d, want %d", rows["ingest_posts"], posts)
	}
	if rows["ingest_ns_count"] != posts {
		t.Errorf("ingest_ns_count = %d, want %d", rows["ingest_ns_count"], posts)
	}
	if rows["ingest_seals"] < 4 {
		t.Errorf("ingest_seals = %d, want >= 4 at threshold 8", rows["ingest_seals"])
	}
	if rows["ingest_compactions"] < 1 {
		t.Errorf("ingest_compactions = %d, want >= 1 at fan-in 2", rows["ingest_compactions"])
	}
	st := idx.Stats()
	if rows["ingest_segments"] != int64(st.Segments) {
		t.Errorf("ingest_segments = %d, Stats().Segments = %d", rows["ingest_segments"], st.Segments)
	}
	if got, ok := rows["ingest_writer_drains"]; !ok || got != st.WriterDrains {
		t.Errorf("ingest_writer_drains = %d (registered %v), Stats().WriterDrains = %d", got, ok, st.WriterDrains)
	}
	if st.Ingested != posts {
		t.Errorf("Stats().Ingested = %d, want %d", st.Ingested, posts)
	}
}
