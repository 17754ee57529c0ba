// Package relops is the miniature in-process relational engine behind
// community.DetectSQL, the paper's pseudo-SQL community detection
// (Figure 4) built as relational-operator plans: typed columnar tables
// of int64 and float64 columns, selections, projections, partitioned
// and replicated hash joins, an anti-join, and grouped sums and argmax.
//
// It stands in for the SCOPE/Hive cluster of the paper's production
// deployment: every operator is expressed as independent partition tasks
// executed by a goroutine pool, so the physical plan mirrors the
// map-reduce shapes discussed in Section 4.2.3. All operators produce
// deterministic output (stable row order independent of scheduling),
// which the tests rely on to compare the relational backend bit-for-bit
// with the direct in-memory implementation.
package relops

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Type enumerates column types.
type Type int

const (
	// Int64 is a 64-bit signed integer column.
	Int64 Type = iota
	// Float64 is a double-precision column.
	Float64
)

// String names the type.
func (t Type) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// Column is one schema entry.
type Column struct {
	Name string
	Type Type
}

// Table is a columnar relation. Columns are stored as typed slices; rows
// are addressed by index. A Table is not safe for concurrent mutation,
// but read-only access from multiple goroutines is fine.
type Table struct {
	cols   []Column
	idx    map[string]int
	ints   [][]int64
	floats [][]float64
	rows   int
}

// New creates an empty table with the given schema. Column names must be
// unique and non-empty.
func New(cols ...Column) (*Table, error) {
	t := &Table{
		cols:   append([]Column(nil), cols...),
		idx:    make(map[string]int, len(cols)),
		ints:   make([][]int64, len(cols)),
		floats: make([][]float64, len(cols)),
	}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("relops: column %d has empty name", i)
		}
		if _, dup := t.idx[c.Name]; dup {
			return nil, fmt.Errorf("relops: duplicate column %q", c.Name)
		}
		t.idx[c.Name] = i
	}
	return t, nil
}

// MustNew is New panicking on error; for statically correct schemas.
func MustNew(cols ...Column) *Table {
	t, err := New(cols...)
	if err != nil {
		panic(err)
	}
	return t
}

// NumRows returns the row count.
func (t *Table) NumRows() int { return t.rows }

// Schema returns a copy of the column definitions.
func (t *Table) Schema() []Column { return append([]Column(nil), t.cols...) }

// colPos returns the position of a column or an error.
func (t *Table) colPos(name string) (int, error) {
	i, ok := t.idx[name]
	if !ok {
		return 0, fmt.Errorf("relops: unknown column %q", name)
	}
	return i, nil
}

// AppendRow adds one row. Values must match the schema; int and int32
// are widened to int64 for convenience.
func (t *Table) AppendRow(vals ...any) error {
	if len(vals) != len(t.cols) {
		return fmt.Errorf("relops: AppendRow got %d values for %d columns", len(vals), len(t.cols))
	}
	for i, v := range vals {
		switch t.cols[i].Type {
		case Int64:
			switch x := v.(type) {
			case int64:
				t.ints[i] = append(t.ints[i], x)
			case int:
				t.ints[i] = append(t.ints[i], int64(x))
			case int32:
				t.ints[i] = append(t.ints[i], int64(x))
			default:
				return fmt.Errorf("relops: column %q wants int64, got %T", t.cols[i].Name, v)
			}
		case Float64:
			x, ok := v.(float64)
			if !ok {
				return fmt.Errorf("relops: column %q wants float64, got %T", t.cols[i].Name, v)
			}
			t.floats[i] = append(t.floats[i], x)
		}
	}
	t.rows++
	return nil
}

// MustAppendRow is AppendRow panicking on error.
func (t *Table) MustAppendRow(vals ...any) {
	if err := t.AppendRow(vals...); err != nil {
		panic(err)
	}
}

// Ints returns the backing slice of an Int64 column (do not mutate).
func (t *Table) Ints(name string) ([]int64, error) {
	i, err := t.colPos(name)
	if err != nil {
		return nil, err
	}
	if t.cols[i].Type != Int64 {
		return nil, fmt.Errorf("relops: column %q is %s, not int64", name, t.cols[i].Type)
	}
	return t.ints[i], nil
}

// value returns the cell (col position, row) as an any.
func (t *Table) value(col, row int) any {
	switch t.cols[col].Type {
	case Int64:
		return t.ints[col][row]
	default:
		return t.floats[col][row]
	}
}

// appendFrom copies row r of src column sc into column dc of t.
// Schemas must already agree in type.
func (t *Table) appendFrom(dc int, src *Table, sc, r int) {
	switch t.cols[dc].Type {
	case Int64:
		t.ints[dc] = append(t.ints[dc], src.ints[sc][r])
	default:
		t.floats[dc] = append(t.floats[dc], src.floats[sc][r])
	}
}

// appendRowFrom copies a whole row from a table with identical layout.
func (t *Table) appendRowFrom(src *Table, r int) {
	for c := range t.cols {
		t.appendFrom(c, src, c, r)
	}
	t.rows++
}

// Rename returns a shallow copy of t with one column renamed. The
// underlying column data is shared, so Rename is O(columns).
func Rename(t *Table, old, new string) (*Table, error) {
	pos, err := t.colPos(old)
	if err != nil {
		return nil, err
	}
	if old == new {
		return t, nil
	}
	if _, dup := t.idx[new]; dup {
		return nil, fmt.Errorf("relops: rename target %q already exists", new)
	}
	out := &Table{
		cols:   append([]Column(nil), t.cols...),
		idx:    make(map[string]int, len(t.cols)),
		ints:   t.ints,
		floats: t.floats,
		rows:   t.rows,
	}
	out.cols[pos].Name = new
	for i, c := range out.cols {
		out.idx[c.Name] = i
	}
	return out, nil
}

// Row is a cursor over one row of a table, passed to Select predicates.
type Row struct {
	t *Table
	i int
}

// Int returns the named Int64 cell; it panics on type or name mismatch
// (predicates are static code, so a panic is a programming error).
func (r Row) Int(name string) int64 {
	c, err := r.t.colPos(name)
	if err != nil || r.t.cols[c].Type != Int64 {
		panic(fmt.Sprintf("relops: Row.Int(%q) on %v", name, err))
	}
	return r.t.ints[c][r.i]
}

// Float returns the named Float64 cell.
func (r Row) Float(name string) float64 {
	c, err := r.t.colPos(name)
	if err != nil || r.t.cols[c].Type != Float64 {
		panic(fmt.Sprintf("relops: Row.Float(%q) on %v", name, err))
	}
	return r.t.floats[c][r.i]
}

// keyBytes appends a memcomparable encoding of cell (col,row): byte-wise
// lexicographic comparison of encodings matches the natural ordering of
// the values. Int64 is encoded big-endian with the sign bit flipped;
// Float64 uses the standard IEEE-754 total-order trick. Both are eight
// bytes, so no encoding is a prefix of another.
func (t *Table) keyBytes(dst []byte, col, row int) []byte {
	return binary.BigEndian.AppendUint64(dst, t.keyBits(col, row))
}

// keyBits is the order-preserving 64-bit image of cell (col,row) that
// keyBytes encodes big-endian.
func (t *Table) keyBits(col, row int) uint64 {
	if t.cols[col].Type == Int64 {
		return uint64(t.ints[col][row]) ^ (1 << 63)
	}
	bits := math.Float64bits(t.floats[col][row])
	if bits&(1<<63) != 0 {
		return ^bits
	}
	return bits ^ (1 << 63)
}

// encodeKey builds the composite memcomparable key of the given columns
// for one row.
func (t *Table) encodeKey(dst []byte, cols []int, row int) []byte {
	for _, c := range cols {
		dst = t.keyBytes(dst, c, row)
	}
	return dst
}
