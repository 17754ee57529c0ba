package relops

import (
	"fmt"
	"sort"
	"sync"
)

// defaultWorkers is the parallelism used when an operator is invoked
// with Workers <= 0. It is deliberately larger than one even on a single
// core so that the partitioned execution paths stay exercised.
const defaultWorkers = 4

// Select returns the rows of t for which pred is true, preserving order.
func Select(t *Table, pred func(Row) bool) *Table {
	out := MustNew(t.cols...)
	for r := 0; r < t.rows; r++ {
		if pred(Row{t: t, i: r}) {
			out.appendRowFrom(t, r)
		}
	}
	return out
}

// Project returns a table with only the named columns, in the given
// order. Column data is shared with the source (projection is O(cols)).
func Project(t *Table, names ...string) (*Table, error) {
	out := &Table{
		idx: make(map[string]int, len(names)),
	}
	for _, n := range names {
		p, err := t.colPos(n)
		if err != nil {
			return nil, err
		}
		if _, dup := out.idx[n]; dup {
			return nil, fmt.Errorf("relops: duplicate column %q in projection", n)
		}
		out.idx[n] = len(out.cols)
		out.cols = append(out.cols, t.cols[p])
		out.ints = append(out.ints, t.ints[p])
		out.floats = append(out.floats, t.floats[p])
	}
	out.rows = t.rows
	return out, nil
}

// Union appends all rows of b to a copy of a. Schemas must be identical
// (names and types, in order).
func Union(a, b *Table) (*Table, error) {
	if err := sameSchema(a, b); err != nil {
		return nil, err
	}
	out := MustNew(a.cols...)
	for r := 0; r < a.rows; r++ {
		out.appendRowFrom(a, r)
	}
	for r := 0; r < b.rows; r++ {
		out.appendRowFrom(b, r)
	}
	return out, nil
}

func sameSchema(a, b *Table) error {
	if len(a.cols) != len(b.cols) {
		return fmt.Errorf("relops: schema mismatch: %d vs %d columns", len(a.cols), len(b.cols))
	}
	for i := range a.cols {
		if a.cols[i] != b.cols[i] {
			return fmt.Errorf("relops: schema mismatch at column %d: %v vs %v", i, a.cols[i], b.cols[i])
		}
	}
	return nil
}

// Distinct removes duplicate rows (over all columns), keeping the first
// occurrence of each and preserving order.
func Distinct(t *Table) *Table {
	all := make([]int, len(t.cols))
	for i := range all {
		all[i] = i
	}
	seen := make(map[string]bool, t.rows)
	out := MustNew(t.cols...)
	var buf []byte
	for r := 0; r < t.rows; r++ {
		buf = t.encodeKey(buf[:0], all, r)
		k := string(buf)
		if seen[k] {
			continue
		}
		seen[k] = true
		out.appendRowFrom(t, r)
	}
	return out
}

// JoinStrategy selects the physical join plan (Section 4.2.3).
type JoinStrategy int

const (
	// PartitionedJoin hashes both inputs into worker partitions and joins
	// each partition independently — the paper's chained map-side join
	// for when neither input fits in one node's memory.
	PartitionedJoin JoinStrategy = iota
	// ReplicatedJoin builds a single hash table over the right input and
	// probes it from parallel partitions of the left input — the paper's
	// replicated join for when the build side fits in memory.
	ReplicatedJoin
)

// JoinOptions configures Join.
type JoinOptions struct {
	Strategy JoinStrategy
	// Workers is the partition parallelism (defaults to 4).
	Workers int
}

// Join computes the inner equi-join of l and r on l.lKey = r.rKey. The
// output schema is all columns of l followed by all columns of r except
// rKey; it is an error for names to collide (use Rename first, as SQL
// aliases would). Output order is deterministic and identical across
// strategies and worker counts.
func Join(l, r *Table, lKey, rKey string, opt JoinOptions) (*Table, error) {
	lPos, err := l.colPos(lKey)
	if err != nil {
		return nil, fmt.Errorf("relops: join left: %w", err)
	}
	rPos, err := r.colPos(rKey)
	if err != nil {
		return nil, fmt.Errorf("relops: join right: %w", err)
	}
	if l.cols[lPos].Type != r.cols[rPos].Type {
		return nil, fmt.Errorf("relops: join key type mismatch: %s vs %s",
			l.cols[lPos].Type, r.cols[rPos].Type)
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = defaultWorkers
	}

	// Output schema: left columns then right columns minus the key.
	outCols := append([]Column(nil), l.cols...)
	rightCols := make([]int, 0, len(r.cols)-1)
	for i, c := range r.cols {
		if i == rPos {
			continue
		}
		for _, lc := range l.cols {
			if lc.Name == c.Name {
				return nil, fmt.Errorf("relops: join output column %q collides; rename first", c.Name)
			}
		}
		outCols = append(outCols, c)
		rightCols = append(rightCols, i)
	}

	lKeys := hashKeys(l, lPos)
	rKeys := hashKeys(r, rPos)

	parts := make([]*Table, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			parts[w] = joinPartition(l, r, lPos, rPos, rightCols, outCols,
				lKeys, rKeys, uint64(w), uint64(workers), opt.Strategy)
		}(w)
	}
	wg.Wait()

	out := MustNew(outCols...)
	for _, p := range parts {
		for rr := 0; rr < p.rows; rr++ {
			out.appendRowFrom(p, rr)
		}
	}
	return out, nil
}

// hashKeys precomputes the partition hash of every row's key column:
// a cheap integer mix of the key's bits (an Int64 key's own bits once
// keyBits' sign flip is undone), so partitioning is deterministic
// across runs.
func hashKeys(t *Table, keyPos int) []uint64 {
	out := make([]uint64, t.rows)
	for i := range out {
		x := (t.keyBits(keyPos, i) ^ 1<<63) * 0x9e3779b97f4a7c15
		out[i] = x ^ x>>29
	}
	return out
}

// joinPartition joins the slice of the key space owned by worker w.
// For PartitionedJoin both sides are filtered to the partition before
// building; for ReplicatedJoin the build table spans all rows (built
// redundantly per worker, as a replicated plan would broadcast it) and
// only the probe side is partitioned.
func joinPartition(l, r *Table, lPos, rPos int, rightCols []int, outCols []Column,
	lKeys, rKeys []uint64, w, workers uint64, strategy JoinStrategy) *Table {

	build := make(map[any][]int)
	for i := 0; i < r.rows; i++ {
		if strategy == PartitionedJoin && rKeys[i]%workers != w {
			continue
		}
		k := r.value(rPos, i)
		build[k] = append(build[k], i)
	}
	out := MustNew(outCols...)
	for i := 0; i < l.rows; i++ {
		if lKeys[i]%workers != w {
			continue
		}
		matches, ok := build[l.value(lPos, i)]
		if !ok {
			continue
		}
		for _, m := range matches {
			for c := range l.cols {
				out.appendFrom(c, l, c, i)
			}
			for j, rc := range rightCols {
				out.appendFrom(len(l.cols)+j, r, rc, m)
			}
			out.rows++
		}
	}
	return out
}

// AntiJoin returns the rows of l whose lKey value has no match in
// r.rKey, preserving l's order. It is the relational complement used to
// carry over communities that found no positive-gain neighbor.
func AntiJoin(l, r *Table, lKey, rKey string) (*Table, error) {
	lPos, err := l.colPos(lKey)
	if err != nil {
		return nil, fmt.Errorf("relops: antijoin left: %w", err)
	}
	rPos, err := r.colPos(rKey)
	if err != nil {
		return nil, fmt.Errorf("relops: antijoin right: %w", err)
	}
	if l.cols[lPos].Type != r.cols[rPos].Type {
		return nil, fmt.Errorf("relops: antijoin key type mismatch")
	}
	present := make(map[any]bool, r.rows)
	for i := 0; i < r.rows; i++ {
		present[r.value(rPos, i)] = true
	}
	out := MustNew(l.cols...)
	for i := 0; i < l.rows; i++ {
		if !present[l.value(lPos, i)] {
			out.appendRowFrom(l, i)
		}
	}
	return out, nil
}

// AggKind enumerates grouped aggregates.
type AggKind int

const (
	// Sum sums a numeric column.
	Sum AggKind = iota
	// ArgMax returns the value of Arg on the row where Col is maximal.
	// Ties break toward the smallest Arg value, making the aggregate
	// deterministic — the property that lets the SQL backend reproduce
	// the in-memory algorithm exactly.
	ArgMax
)

// Agg describes one aggregate output.
type Agg struct {
	Kind AggKind
	// Col is the aggregated column.
	Col string
	// Arg is the column returned by ArgMax.
	Arg string
	// As names the output column.
	As string
}

// GroupBy groups t by the key columns and computes the aggregates. The
// output contains the key columns followed by one column per aggregate,
// with groups ordered by their composite key (memcomparable order).
// Aggregation runs as parallel partial aggregation over row partitions
// followed by a merge, the one-pass map-reduce shape of Section 4.2.3.
func GroupBy(t *Table, keys []string, aggs []Agg, workers int) (*Table, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("relops: GroupBy needs at least one key")
	}
	if workers <= 0 {
		workers = defaultWorkers
	}
	keyPos := make([]int, len(keys))
	for i, k := range keys {
		p, err := t.colPos(k)
		if err != nil {
			return nil, err
		}
		keyPos[i] = p
	}
	specs, outCols, err := resolveAggs(t, keys, keyPos, aggs)
	if err != nil {
		return nil, err
	}

	// Parallel partial aggregation.
	partials := make([]map[string]*groupState, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := map[string]*groupState{}
			lo := t.rows * w / workers
			hi := t.rows * (w + 1) / workers
			var buf []byte
			for r := lo; r < hi; r++ {
				buf = t.encodeKey(buf[:0], keyPos, r)
				k := string(buf)
				st := local[k]
				if st == nil {
					st = newGroupState(specs, r)
					local[k] = st
				}
				st.update(t, specs, r)
			}
			partials[w] = local
		}(w)
	}
	wg.Wait()

	merged := partials[0]
	for _, p := range partials[1:] {
		for k, st := range p {
			if have, ok := merged[k]; ok {
				have.merge(t, specs, st)
			} else {
				merged[k] = st
			}
		}
	}

	// Deterministic group order: sort by encoded key.
	order := make([]string, 0, len(merged))
	for k := range merged {
		order = append(order, k)
	}
	sort.Strings(order)

	out := MustNew(outCols...)
	for _, k := range order {
		st := merged[k]
		for i := range keyPos {
			out.appendFrom(i, t, keyPos[i], st.firstRow)
		}
		for ai, sp := range specs {
			c := len(keyPos) + ai
			switch {
			case sp.kind == ArgMax:
				out.appendFrom(c, t, sp.argPos, st.argRows[ai])
			case sp.colType == Int64:
				out.ints[c] = append(out.ints[c], st.accInt[ai])
			default:
				out.floats[c] = append(out.floats[c], st.accFloat[ai])
			}
		}
		out.rows++
	}
	return out, nil
}

type aggSpec struct {
	kind    AggKind
	colPos  int
	colType Type
	argPos  int
}

func resolveAggs(t *Table, keys []string, keyPos []int, aggs []Agg) ([]aggSpec, []Column, error) {
	outCols := make([]Column, 0, len(keys)+len(aggs))
	for i, k := range keys {
		outCols = append(outCols, Column{Name: k, Type: t.cols[keyPos[i]].Type})
	}
	specs := make([]aggSpec, len(aggs))
	for i, a := range aggs {
		if a.As == "" {
			return nil, nil, fmt.Errorf("relops: aggregate %d has empty output name", i)
		}
		p, err := t.colPos(a.Col)
		if err != nil {
			return nil, nil, err
		}
		sp := aggSpec{kind: a.Kind, colPos: p, colType: t.cols[p].Type}
		switch a.Kind {
		case Sum:
			outCols = append(outCols, Column{Name: a.As, Type: sp.colType})
		case ArgMax:
			if sp.argPos, err = t.colPos(a.Arg); err != nil {
				return nil, nil, err
			}
			outCols = append(outCols, Column{Name: a.As, Type: t.cols[sp.argPos].Type})
		default:
			return nil, nil, fmt.Errorf("relops: unknown aggregate kind %d", a.Kind)
		}
		specs[i] = sp
	}
	// Check for output name collisions.
	seen := map[string]bool{}
	for _, c := range outCols {
		if seen[c.Name] {
			return nil, nil, fmt.Errorf("relops: duplicate output column %q", c.Name)
		}
		seen[c.Name] = true
	}
	return specs, outCols, nil
}

// groupState carries per-group accumulator values, indexed by aggregate.
type groupState struct {
	firstRow int
	accInt   []int64
	accFloat []float64
	argRows  []int
}

func newGroupState(specs []aggSpec, row int) *groupState {
	st := &groupState{
		firstRow: row,
		accInt:   make([]int64, len(specs)),
		accFloat: make([]float64, len(specs)),
		argRows:  make([]int, len(specs)),
	}
	for i := range st.argRows {
		st.argRows[i] = -1
	}
	return st
}

func (st *groupState) update(t *Table, specs []aggSpec, r int) {
	for i, sp := range specs {
		switch {
		case sp.kind == ArgMax:
			if st.argRows[i] < 0 || argMaxBetter(t, sp, r, st.argRows[i]) {
				st.argRows[i] = r
			}
		case sp.colType == Int64:
			st.accInt[i] += t.ints[sp.colPos][r]
		default:
			st.accFloat[i] += t.floats[sp.colPos][r]
		}
	}
}

// argMaxBetter reports whether row a beats the incumbent row b for an
// ArgMax aggregate: strictly larger value, or equal value with smaller
// argument (deterministic tie-break).
func argMaxBetter(t *Table, sp aggSpec, a, b int) bool {
	var cmp int
	if sp.colType == Int64 {
		va, vb := t.ints[sp.colPos][a], t.ints[sp.colPos][b]
		switch {
		case va > vb:
			cmp = 1
		case va < vb:
			cmp = -1
		}
	} else {
		va, vb := t.floats[sp.colPos][a], t.floats[sp.colPos][b]
		switch {
		case va > vb:
			cmp = 1
		case va < vb:
			cmp = -1
		}
	}
	if cmp != 0 {
		return cmp > 0
	}
	// Tie on value: smaller argument wins.
	return t.keyBits(sp.argPos, a) < t.keyBits(sp.argPos, b)
}

func (st *groupState) merge(t *Table, specs []aggSpec, other *groupState) {
	for i, sp := range specs {
		if sp.kind == ArgMax {
			if other.argRows[i] >= 0 && (st.argRows[i] < 0 || argMaxBetter(t, sp, other.argRows[i], st.argRows[i])) {
				st.argRows[i] = other.argRows[i]
			}
			continue
		}
		st.accInt[i] += other.accInt[i]
		st.accFloat[i] += other.accFloat[i]
	}
	if other.firstRow < st.firstRow {
		st.firstRow = other.firstRow
	}
}

// Extend returns t plus one computed column. The value function receives
// each row and must return a value of the declared type (int64 or
// float64; int and int32 widen). It stands in for SQL computed
// expressions such as the ModulGain(...) call in the paper's Figure 4.
func Extend(t *Table, name string, typ Type, fn func(Row) any) (*Table, error) {
	if _, dup := t.idx[name]; dup {
		return nil, fmt.Errorf("relops: extend column %q already exists", name)
	}
	out := MustNew(append(t.Schema(), Column{Name: name, Type: typ})...)
	for r := 0; r < t.rows; r++ {
		vals := make([]any, 0, len(t.cols)+1)
		for c := range t.cols {
			vals = append(vals, t.value(c, r))
		}
		vals = append(vals, fn(Row{t: t, i: r}))
		if err := out.AppendRow(vals...); err != nil {
			return nil, fmt.Errorf("relops: extend row %d: %w", r, err)
		}
	}
	return out, nil
}
