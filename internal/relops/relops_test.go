package relops

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func mkTable(t *testing.T) *Table {
	t.Helper()
	tbl := MustNew(
		Column{"id", Int64},
		Column{"score", Float64},
		Column{"rank", Int64},
	)
	tbl.MustAppendRow(1, 0.5, 10)
	tbl.MustAppendRow(2, 1.5, 20)
	tbl.MustAppendRow(3, -0.5, 30)
	tbl.MustAppendRow(2, 2.5, 40)
	return tbl
}

// hasColumn reports whether the named column exists.
func hasColumn(t *Table, name string) bool {
	_, ok := t.idx[name]
	return ok
}

func TestNewRejectsBadSchemas(t *testing.T) {
	if _, err := New(Column{"a", Int64}, Column{"a", Float64}); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := New(Column{"", Int64}); err == nil {
		t.Error("empty column name accepted")
	}
}

func TestAppendRowTypeChecks(t *testing.T) {
	tbl := MustNew(Column{"id", Int64}, Column{"w", Float64})
	if err := tbl.AppendRow(1, 0.5); err != nil {
		t.Fatalf("valid row rejected: %v", err)
	}
	if err := tbl.AppendRow("bad", 0.5); err == nil {
		t.Error("wrong type accepted for int column")
	}
	if err := tbl.AppendRow(1); err == nil {
		t.Error("short row accepted")
	}
	if err := tbl.AppendRow(1, 2); err == nil {
		t.Error("int accepted for float column")
	}
	// int and int32 widen.
	if err := tbl.AppendRow(int32(7), 1.5); err != nil {
		t.Errorf("int32 not widened: %v", err)
	}
}

func TestColumnAccessors(t *testing.T) {
	tbl := mkTable(t)
	ids, err := tbl.Ints("id")
	if err != nil || len(ids) != 4 || ids[0] != 1 {
		t.Fatalf("Ints: %v %v", ids, err)
	}
	if _, err := tbl.Ints("score"); err == nil {
		t.Error("Ints on float column succeeded")
	}
	if _, err := tbl.Ints("nonexistent"); err == nil {
		t.Error("unknown column succeeded")
	}
}

func TestSelect(t *testing.T) {
	tbl := mkTable(t)
	out := Select(tbl, func(r Row) bool { return r.Int("id") == 2 })
	if out.NumRows() != 2 {
		t.Fatalf("got %d rows, want 2", out.NumRows())
	}
	ranks, _ := out.Ints("rank")
	if ranks[0] != 20 || ranks[1] != 40 {
		t.Errorf("order not preserved: %v", ranks)
	}
}

func TestProjectSharesData(t *testing.T) {
	tbl := mkTable(t)
	out, err := Project(tbl, "rank", "id")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Schema()) != 2 || out.Schema()[0].Name != "rank" {
		t.Fatalf("bad projection schema: %v", out.Schema())
	}
	if out.NumRows() != tbl.NumRows() {
		t.Fatal("row count changed")
	}
	if _, err := Project(tbl, "nope"); err == nil {
		t.Error("unknown column projected")
	}
	if _, err := Project(tbl, "id", "id"); err == nil {
		t.Error("duplicate projection accepted")
	}
}

func TestRename(t *testing.T) {
	tbl := mkTable(t)
	out, err := Rename(tbl, "id", "vertex")
	if err != nil {
		t.Fatal(err)
	}
	if !hasColumn(out, "vertex") || hasColumn(out, "id") {
		t.Error("rename did not take")
	}
	// Original untouched.
	if !hasColumn(tbl, "id") {
		t.Error("rename mutated source")
	}
	if _, err := Rename(tbl, "id", "rank"); err == nil {
		t.Error("rename onto existing column accepted")
	}
	if _, err := Rename(tbl, "zzz", "w"); err == nil {
		t.Error("rename of unknown column accepted")
	}
}

func TestUnion(t *testing.T) {
	a := mkTable(t)
	b := mkTable(t)
	out, err := Union(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 8 {
		t.Fatalf("union rows = %d, want 8", out.NumRows())
	}
	c := MustNew(Column{"id", Int64})
	if _, err := Union(a, c); err == nil {
		t.Error("schema mismatch accepted")
	}
}

func TestDistinct(t *testing.T) {
	tbl := MustNew(Column{"a", Int64}, Column{"b", Float64})
	tbl.MustAppendRow(1, 0.5)
	tbl.MustAppendRow(1, 0.5)
	tbl.MustAppendRow(1, 1.5)
	tbl.MustAppendRow(2, 0.5)
	out := Distinct(tbl)
	if out.NumRows() != 3 {
		t.Fatalf("distinct rows = %d, want 3", out.NumRows())
	}
}

func TestKeyBytesOrderMatchesValueOrder(t *testing.T) {
	prop := func(a, b int64) bool {
		tbl := MustNew(Column{"v", Int64})
		tbl.MustAppendRow(a)
		tbl.MustAppendRow(b)
		ka := tbl.encodeKey(nil, []int{0}, 0)
		kb := tbl.encodeKey(nil, []int{0}, 1)
		return (a < b) == (bytes.Compare(ka, kb) < 0) &&
			(a == b) == bytes.Equal(ka, kb)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
	propF := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		tbl := MustNew(Column{"v", Float64})
		tbl.MustAppendRow(a)
		tbl.MustAppendRow(b)
		ka := tbl.encodeKey(nil, []int{0}, 0)
		kb := tbl.encodeKey(nil, []int{0}, 1)
		return (a < b) == (bytes.Compare(ka, kb) < 0)
	}
	if err := quick.Check(propF, nil); err != nil {
		t.Fatal(err)
	}
}

func joinInputs() (*Table, *Table) {
	l := MustNew(Column{"src", Int64}, Column{"w", Float64})
	l.MustAppendRow(1, 0.1)
	l.MustAppendRow(2, 0.2)
	l.MustAppendRow(2, 0.3)
	l.MustAppendRow(3, 0.4)
	r := MustNew(Column{"comm", Int64}, Column{"member", Int64})
	r.MustAppendRow(10, 1)
	r.MustAppendRow(10, 2)
	r.MustAppendRow(20, 2)
	r.MustAppendRow(30, 9)
	return l, r
}

func TestJoinInner(t *testing.T) {
	l, r := joinInputs()
	out, err := Join(l, r, "src", "member", JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// src=1 matches comm=10; src=2 (two rows) matches comm=10 and 20
	// (so 2*2=4 rows); src=3 matches nothing. Total 5.
	if out.NumRows() != 5 {
		t.Fatalf("join rows = %d, want 5", out.NumRows())
	}
	if !hasColumn(out, "comm") || hasColumn(out, "member") {
		t.Errorf("join schema wrong: %v", out.Schema())
	}
}

func TestJoinStrategiesAgree(t *testing.T) {
	l, r := joinInputs()
	a, err := Join(l, r, "src", "member", JoinOptions{Strategy: PartitionedJoin, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Join(l, r, "src", "member", JoinOptions{Strategy: ReplicatedJoin, Workers: 5})
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, a, b)
}

func TestJoinWorkerInvariance(t *testing.T) {
	l, r := joinInputs()
	var prev *Table
	for _, w := range []int{1, 2, 7} {
		out, err := Join(l, r, "src", "member", JoinOptions{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			assertTablesEqual(t, prev, out)
		}
		prev = out
	}
}

func TestJoinAgainstNaive(t *testing.T) {
	// Property: hash join equals nested-loop join (as multisets of
	// rows).
	prop := func(seed uint64) bool {
		s := seed
		next := func(n int) int {
			s = s*6364136223846793005 + 1442695040888963407
			return int(s>>33) % n
		}
		l := MustNew(Column{"k", Int64}, Column{"lv", Int64})
		r := MustNew(Column{"rk", Int64}, Column{"rv", Int64})
		for i := 0; i < 30; i++ {
			l.MustAppendRow(next(8), i)
		}
		for i := 0; i < 25; i++ {
			r.MustAppendRow(next(8), 100+i)
		}
		got, err := Join(l, r, "k", "rk", JoinOptions{Workers: 3})
		if err != nil {
			return false
		}
		rows := map[[3]int64]int{}
		lk, _ := l.Ints("k")
		lv, _ := l.Ints("lv")
		rk, _ := r.Ints("rk")
		rv, _ := r.Ints("rv")
		for i := range lk {
			for j := range rk {
				if lk[i] == rk[j] {
					rows[[3]int64{lk[i], lv[i], rv[j]}]++
				}
			}
		}
		gk, _ := got.Ints("k")
		glv, _ := got.Ints("lv")
		grv, _ := got.Ints("rv")
		for i := range gk {
			rows[[3]int64{gk[i], glv[i], grv[i]}]--
		}
		for _, n := range rows {
			if n != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestJoinErrors(t *testing.T) {
	l, r := joinInputs()
	if _, err := Join(l, r, "nope", "member", JoinOptions{}); err == nil {
		t.Error("unknown left key accepted")
	}
	if _, err := Join(l, r, "src", "nope", JoinOptions{}); err == nil {
		t.Error("unknown right key accepted")
	}
	if _, err := Join(l, r, "src", "comm", JoinOptions{}); err == nil {
		// comm is int64 too, so force a type mismatch differently.
		t.Log("same-type key join fine")
	}
	mixed := MustNew(Column{"k", Float64})
	if _, err := Join(l, mixed, "src", "k", JoinOptions{}); err == nil {
		t.Error("type-mismatched join accepted")
	}
	collide := MustNew(Column{"key2", Int64}, Column{"w", Float64})
	if _, err := Join(l, collide, "src", "key2", JoinOptions{}); err == nil {
		t.Error("column collision accepted")
	}
}

func TestAntiJoin(t *testing.T) {
	l, r := joinInputs()
	out, err := AntiJoin(l, r, "src", "member")
	if err != nil {
		t.Fatal(err)
	}
	// Only src=3 has no match.
	if out.NumRows() != 1 {
		t.Fatalf("antijoin rows = %d, want 1", out.NumRows())
	}
	srcs, _ := out.Ints("src")
	if srcs[0] != 3 {
		t.Errorf("antijoin kept %d", srcs[0])
	}
}

func TestGroupByArgMax(t *testing.T) {
	tbl := MustNew(Column{"g", Int64}, Column{"dist", Float64}, Column{"who", Int64})
	tbl.MustAppendRow(1, 0.5, 100)
	tbl.MustAppendRow(1, 0.9, 200)
	tbl.MustAppendRow(1, 0.9, 150) // tie on dist: smaller who wins
	tbl.MustAppendRow(2, 0.1, 300)
	out, err := GroupBy(tbl, []string{"g"}, []Agg{
		{Kind: ArgMax, Col: "dist", Arg: "who", As: "leader"},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	leaders, _ := out.Ints("leader")
	if leaders[0] != 150 {
		t.Errorf("group 1 leader = %d, want 150 (tie-break to smaller)", leaders[0])
	}
	if leaders[1] != 300 {
		t.Errorf("group 2 leader = %d, want 300", leaders[1])
	}
}

func TestGroupByWorkerInvariance(t *testing.T) {
	tbl := MustNew(Column{"g", Int64}, Column{"v", Float64}, Column{"a", Int64})
	s := uint64(5)
	for i := 0; i < 500; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		// Multiples of 1/8 are exactly representable, so float sums are
		// associative and the comparison below can be exact.
		tbl.MustAppendRow(int64(s%17), float64(s%1000)/8, int64(s%97))
	}
	var prev *Table
	for _, w := range []int{1, 3, 8} {
		out, err := GroupBy(tbl, []string{"g"}, []Agg{
			{Kind: Sum, Col: "v", As: "sum"},
			{Kind: ArgMax, Col: "v", Arg: "a", As: "am"},
		}, w)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			assertTablesEqual(t, prev, out)
		}
		prev = out
	}
}

func TestGroupByMultiKey(t *testing.T) {
	tbl := MustNew(Column{"a", Int64}, Column{"b", Int64}, Column{"v", Int64})
	tbl.MustAppendRow(1, 1, 10)
	tbl.MustAppendRow(1, 2, 20)
	tbl.MustAppendRow(1, 1, 30)
	out, err := GroupBy(tbl, []string{"a", "b"}, []Agg{{Kind: Sum, Col: "v", As: "s"}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 {
		t.Fatalf("groups = %d, want 2", out.NumRows())
	}
	ss, _ := out.Ints("s")
	if ss[0] != 40 || ss[1] != 20 {
		t.Errorf("sums = %v", ss)
	}
}

func TestGroupByErrors(t *testing.T) {
	tbl := mkTable(t)
	if _, err := GroupBy(tbl, nil, []Agg{{Kind: Sum, Col: "rank", As: "n"}}, 1); err == nil {
		t.Error("empty key accepted")
	}
	if _, err := GroupBy(tbl, []string{"id"}, []Agg{{Kind: Sum, Col: "zz", As: "s"}}, 1); err == nil {
		t.Error("sum over unknown column accepted")
	}
	if _, err := GroupBy(tbl, []string{"id"}, []Agg{{Kind: ArgMax, Col: "score", Arg: "zz", As: "s"}}, 1); err == nil {
		t.Error("argmax of unknown column accepted")
	}
	if _, err := GroupBy(tbl, []string{"id"}, []Agg{{Kind: Sum, Col: "rank", As: ""}}, 1); err == nil {
		t.Error("empty output name accepted")
	}
	if _, err := GroupBy(tbl, []string{"id"}, []Agg{{Kind: Sum, Col: "rank", As: "id"}}, 1); err == nil {
		t.Error("output collision accepted")
	}
	if _, err := GroupBy(tbl, []string{"zz"}, []Agg{{Kind: Sum, Col: "rank", As: "n"}}, 1); err == nil {
		t.Error("unknown key accepted")
	}
}

// assertTablesEqual fails the test unless both tables are identical in
// schema and content (including row order).
func assertTablesEqual(t *testing.T, a, b *Table) {
	t.Helper()
	if !tablesEqual(a, b) {
		t.Fatalf("tables differ:\nA schema=%v rows=%d\nB schema=%v rows=%d",
			a.Schema(), a.NumRows(), b.Schema(), b.NumRows())
	}
}

func tablesEqual(a, b *Table) bool {
	if a.NumRows() != b.NumRows() || len(a.cols) != len(b.cols) {
		return false
	}
	as, bs := a.Schema(), b.Schema()
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	for r := 0; r < a.rows; r++ {
		for c := range a.cols {
			if a.value(c, r) != b.value(c, r) {
				return false
			}
		}
	}
	return true
}

func BenchmarkJoinPartitioned(b *testing.B) {
	l := MustNew(Column{"k", Int64}, Column{"v", Int64})
	r := MustNew(Column{"rk", Int64}, Column{"rv", Int64})
	for i := 0; i < 10000; i++ {
		l.MustAppendRow(i%997, i)
		r.MustAppendRow(i%997, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Join(l, r, "k", "rk", JoinOptions{Strategy: PartitionedJoin, Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoinReplicated(b *testing.B) {
	l := MustNew(Column{"k", Int64}, Column{"v", Int64})
	r := MustNew(Column{"rk", Int64}, Column{"rv", Int64})
	for i := 0; i < 10000; i++ {
		l.MustAppendRow(i%997, i)
		r.MustAppendRow(i%997, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Join(l, r, "k", "rk", JoinOptions{Strategy: ReplicatedJoin, Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGroupBy(b *testing.B) {
	tbl := MustNew(Column{"g", Int64}, Column{"v", Float64})
	for i := 0; i < 50000; i++ {
		tbl.MustAppendRow(i%1000, float64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GroupBy(tbl, []string{"g"}, []Agg{{Kind: Sum, Col: "v", As: "s"}}, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func TestExtend(t *testing.T) {
	tbl := MustNew(Column{"a", Int64}, Column{"b", Int64})
	tbl.MustAppendRow(3, 4)
	tbl.MustAppendRow(10, 2)
	out, err := Extend(tbl, "sum", Int64, func(r Row) any { return r.Int("a") + r.Int("b") })
	if err != nil {
		t.Fatal(err)
	}
	sums, _ := out.Ints("sum")
	if sums[0] != 7 || sums[1] != 12 {
		t.Errorf("sums = %v", sums)
	}
	// Source table untouched.
	if len(tbl.Schema()) != 2 {
		t.Error("Extend mutated source")
	}
	if _, err := Extend(tbl, "a", Int64, func(r Row) any { return int64(0) }); err == nil {
		t.Error("duplicate extend column accepted")
	}
	if _, err := Extend(tbl, "bad", Int64, func(r Row) any { return "str" }); err == nil {
		t.Error("type-mismatched extend accepted")
	}
}

func TestExtendFloatAndString(t *testing.T) {
	tbl := MustNew(Column{"a", Int64})
	tbl.MustAppendRow(3)
	tbl.MustAppendRow(10)
	half, err := Extend(tbl, "half", Float64, func(r Row) any { return float64(r.Int("a")) / 2 })
	if err != nil {
		t.Fatal(err)
	}
	if hs := half.floats[half.idx["half"]]; hs[0] != 1.5 || hs[1] != 5 {
		t.Errorf("half = %v", hs)
	}
	// There is no string column type: a string value is refused by a
	// Float64 column as by an Int64 one.
	if _, err := Extend(tbl, "label", Float64, func(r Row) any { return "v" }); err == nil {
		t.Error("string value accepted by a Float64 extend")
	}
}
