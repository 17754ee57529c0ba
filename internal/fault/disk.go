package fault

import (
	"sync"
	"sync/atomic"

	"repro/internal/diskseg"
)

// DiskIO wraps a diskseg.IO with scriptable file-level faults, the
// third seam of the chaos harness: the storage tier. It can refuse
// opens (disk gone), fail the map (mmap exhaustion), truncate the file
// mid-section (a crash between write and sync) or flip a byte (bit
// rot) — all without touching a real disk fault. Truncation and
// corruption apply to every file opened while armed; the view each
// reader gets is a private copy, so arming faults never disturbs files
// already mapped. Safe for concurrent use.
type DiskIO struct {
	inner diskseg.IO

	mu       sync.Mutex
	openErr  error
	mmapErr  error
	truncate int // cap the visible file to n bytes; <0 = off
	corrupt  int // XOR the byte at this offset; <0 = off

	opens atomic.Int64
}

// NewDiskIO returns the production diskseg.OS behind a fault gate with
// no faults armed.
func NewDiskIO() *DiskIO {
	return &DiskIO{inner: diskseg.OS{}, truncate: -1, corrupt: -1}
}

// FailOpens makes every future Open fail with err (ErrKilled when err
// is nil); Heal undoes it.
func (d *DiskIO) FailOpens(err error) {
	if err == nil {
		err = ErrKilled
	}
	d.mu.Lock()
	d.openErr = err
	d.mu.Unlock()
}

// FailMmaps makes the map step of every future open fail with err
// (ErrKilled when err is nil); Heal undoes it.
func (d *DiskIO) FailMmaps(err error) {
	if err == nil {
		err = ErrKilled
	}
	d.mu.Lock()
	d.mmapErr = err
	d.mu.Unlock()
}

// TruncateTo caps every file opened from now on at n visible bytes —
// the short read of a crash between write and sync (negative n
// disarms).
func (d *DiskIO) TruncateTo(n int) {
	d.mu.Lock()
	d.truncate = n
	d.mu.Unlock()
}

// CorruptByte flips the byte at offset off in every file opened from
// now on (negative off disarms). The flip lands in the reader's
// private copy, never the real file.
func (d *DiskIO) CorruptByte(off int) {
	d.mu.Lock()
	d.corrupt = off
	d.mu.Unlock()
}

// Heal disarms every fault.
func (d *DiskIO) Heal() {
	d.mu.Lock()
	d.openErr, d.mmapErr, d.truncate, d.corrupt = nil, nil, -1, -1
	d.mu.Unlock()
}

// Opens returns how many opens were admitted past the gate.
func (d *DiskIO) Opens() int64 { return d.opens.Load() }

// Open implements diskseg.IO under the armed faults.
func (d *DiskIO) Open(path string) (diskseg.File, error) {
	d.mu.Lock()
	openErr, mmapErr, truncate, corrupt := d.openErr, d.mmapErr, d.truncate, d.corrupt
	d.mu.Unlock()
	if openErr != nil {
		return nil, openErr
	}
	f, err := d.inner.Open(path)
	if err != nil {
		return nil, err
	}
	d.opens.Add(1)
	return &diskFile{inner: f, mmapErr: mmapErr, truncate: truncate, corrupt: corrupt}, nil
}

// diskFile is one opened file under the faults armed at open time.
type diskFile struct {
	inner    diskseg.File
	mmapErr  error
	truncate int
	corrupt  int
	copied   []byte
}

// Size implements diskseg.File, reporting the truncated length when a
// truncation is armed.
func (f *diskFile) Size() (int64, error) {
	n, err := f.inner.Size()
	if err != nil {
		return 0, err
	}
	if f.truncate >= 0 && int64(f.truncate) < n {
		n = int64(f.truncate)
	}
	return n, nil
}

// Mmap implements diskseg.File. Truncation and corruption are applied
// to a private heap copy — the underlying map is read-only and shared.
func (f *diskFile) Mmap() ([]byte, error) {
	if f.mmapErr != nil {
		return nil, f.mmapErr
	}
	b, err := f.inner.Mmap()
	if err != nil {
		return nil, err
	}
	if f.truncate < 0 && f.corrupt < 0 {
		return b, nil
	}
	if f.copied == nil {
		if f.truncate >= 0 && f.truncate < len(b) {
			b = b[:f.truncate]
		}
		f.copied = append([]byte(nil), b...)
		if f.corrupt >= 0 && f.corrupt < len(f.copied) {
			f.copied[f.corrupt] ^= 0xff
		}
	}
	return f.copied, nil
}

// Close implements diskseg.File.
func (f *diskFile) Close() error {
	f.copied = nil
	return f.inner.Close()
}
