package main

import (
	"strings"
	"testing"
)

// request builds the spans of one traced request the way the wrappers
// record them: gateway ⊃ core ⊃ shard calls.
func request(req int, base int, t0 int64) []span {
	return []span{
		{ID: base, Parent: -1, Req: req, Name: "gateway", Start: t0, End: t0 + 100},
		{ID: base + 1, Parent: base, Req: req, Name: "core", Start: t0 + 10, End: t0 + 90},
		{ID: base + 2, Parent: base + 1, Req: req, Name: "shard[0].search", Start: t0 + 20, End: t0 + 40},
		{ID: base + 3, Parent: base + 1, Req: req, Name: "shard[1].search", Start: t0 + 40, End: t0 + 70},
		{ID: base + 4, Parent: base + 1, Req: req, Name: "shard[0].stats", Start: t0 + 75, End: t0 + 80},
	}
}

func TestSelfTimes(t *testing.T) {
	spans := request(0, 0, 1000)
	self := selfTimes(spans)
	want := []int64{20, 25, 20, 30, 5} // gateway 100-80, core 80-(20+30+5), leaves whole
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	// A parallel scatter: the two shard calls overlap by 10; the parent
	// was covered for 30, not for 40.
	spans := []span{
		{ID: 0, Parent: -1, Name: "core", Start: 0, End: 50},
		{ID: 1, Parent: 0, Name: "shard[0].search", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "shard[1].search", Start: 20, End: 40},
		// A child fully inside another adds no coverage.
		{ID: 3, Parent: 0, Name: "shard[0].stats", Start: 22, End: 28},
	}
	if self := selfTimes(spans); self[0] != 20 {
		t.Errorf("self time with overlapping children = %d, want 20", self[0])
	}
}

func TestBreakdown(t *testing.T) {
	spans := append(request(0, 0, 0), request(1, 5, 500)...)
	lt := breakdown(spans)
	for name, got := range map[string][]float64{
		"gateway+serve self": lt.gatewayServeSelf, "core self": lt.coreSelf, "shard total": lt.shardTotal,
	} {
		if len(got) != 2 || got[0] != got[1] {
			t.Errorf("%s: want one equal value per request, got %v", name, got)
		}
	}
	// ns → µs: 20, 25 and 20+30+5.
	if lt.gatewayServeSelf[0] != 0.020 || lt.coreSelf[0] != 0.025 || lt.shardTotal[0] != 0.055 {
		t.Errorf("breakdown = %v %v %v", lt.gatewayServeSelf[0], lt.coreSelf[0], lt.shardTotal[0])
	}
}

func TestValidateSpans(t *testing.T) {
	good := append(request(0, 0, 0), request(1, 5, 500)...)
	if err := validateSpans(good); err != nil {
		t.Fatalf("well-formed spans rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		mutate func([]span)
		want   string
	}{
		"child outlives parent":   {func(s []span) { s[2].End = s[1].End + 1 }, "leaves its parent"},
		"child starts early":      {func(s []span) { s[1].Start = s[0].Start - 1 }, "leaves its parent"},
		"unclosed span":           {func(s []span) { s[4].End = 0 }, "ends before it starts"},
		"second root":             {func(s []span) { s[3].Parent = -1 }, "root spans"},
		"parent in other request": {func(s []span) { s[7].Parent = 1 }, "in request"},
		"unknown parent":          {func(s []span) { s[9].Parent = 99 }, "unknown parent"},
		"renumbered":              {func(s []span) { s[3].ID = 8 }, "carries id"},
	} {
		bad := append([]span(nil), good...)
		tc.mutate(bad)
		err := validateSpans(bad)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", name, err, tc.want)
		}
	}
}

func TestRecorderNesting(t *testing.T) {
	rec := newRecorder()
	for req := 0; req < 3; req++ {
		rec.req++
		root := rec.begin("gateway", -1)
		core := rec.begin("core", root)
		for i := 0; i < 2; i++ {
			rec.end(rec.begin("shard.search", core))
		}
		rec.end(core)
		rec.end(root)
	}
	if len(rec.spans) != 12 {
		t.Fatalf("%d spans, want 12", len(rec.spans))
	}
	if err := validateSpans(rec.spans); err != nil {
		t.Fatal(err)
	}
	if rec.spans[11].Req != 2 || rec.spans[0].Req != 0 {
		t.Errorf("request ids: first %d, last %d", rec.spans[0].Req, rec.spans[11].Req)
	}
}
