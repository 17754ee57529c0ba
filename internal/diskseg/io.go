package diskseg

import (
	"os"
)

// IO is the file/mmap seam of the read path. Production uses OS (real
// files, a real memory map); the chaos harness (internal/fault.IO)
// wraps it to inject open failures, mmap failures, truncation and
// corruption without touching a real disk fault. WriteFile always goes
// through the os package directly — spill errors on the write side
// surface as ordinary file-system errors and leave the in-memory
// segment in place.
type IO interface {
	// Open opens an existing segment file for reading.
	Open(path string) (File, error)
}

// File is one opened segment file. Mmap maps (or loads) the whole file
// read-only; the returned bytes stay valid until Close. Close releases
// the mapping and whatever else the file still holds.
type File interface {
	// Size returns the file's length in bytes.
	Size() (int64, error)
	// Mmap returns the whole file as read-only bytes.
	Mmap() ([]byte, error)
	// Close unmaps and closes. The bytes Mmap returned must not be
	// touched afterwards.
	Close() error
}

// OS is the production IO: real files, a real read-only memory map on
// unix (a heap read elsewhere).
type OS struct{}

// Open implements IO over the real file system.
func (OS) Open(path string) (File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &osFile{f: f}, nil
}

// osFile implements File over an *os.File until it is mapped, and over
// the mapping alone from then on: Mmap closes the descriptor, which the
// mapping outlives, so a segment held open for as long as any snapshot
// pins it holds no file descriptor.
type osFile struct {
	f      *os.File // nil once mapped
	mapped []byte
}

// Size implements File.
func (o *osFile) Size() (int64, error) {
	if o.f == nil {
		return int64(len(o.mapped)), nil
	}
	st, err := o.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Mmap implements File via the platform map (mmap.go / mmap_other.go).
func (o *osFile) Mmap() ([]byte, error) {
	if o.f == nil {
		return o.mapped, nil
	}
	b, err := mmapFile(o.f)
	if err != nil {
		return nil, err
	}
	o.mapped = b
	err = o.f.Close()
	o.f = nil
	if err != nil {
		return nil, err
	}
	return b, nil
}

// Close implements File.
func (o *osFile) Close() error {
	var err error
	if o.mapped != nil {
		err = munmapFile(o.mapped)
		o.mapped = nil
	}
	if o.f != nil {
		if cerr := o.f.Close(); err == nil {
			err = cerr
		}
		o.f = nil
	}
	return err
}

// memFile is the File of an in-memory image (Load): Mmap hands out the
// image itself and Close has nothing to release.
type memFile []byte

// Size implements File.
func (m memFile) Size() (int64, error) { return int64(len(m)), nil }

// Mmap implements File.
func (m memFile) Mmap() ([]byte, error) { return m, nil }

// Close implements File.
func (memFile) Close() error { return nil }
