package pmem

import (
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// MapFile is the paper's medium (§2.1): the image file at path mapped
// MAP_SHARED, whole, as the Region itself. Nothing is read or copied, and
// every store is in the page cache when it is made, so the heap survives the
// death of the process as it stands; only Sync makes it survive power failure.
// The RPMEM003 image format is the mapping format: a SaveFileOnline image, a
// replica's download and a live heap are one kind of file.
//
// A missing or empty file is created: the header, then the full length
// allocated, so a full disk is an error here and never a SIGBUS mid-store; a
// file holding the header alone was killed between the two and is finished.
// An existing file — it brings its own size — is validated as LoadFile does,
// before anything is mapped. Only ModeFast maps: a crash-sim region's
// persistent image is its shadow. The header's feed position moves into the
// Region (ReplMeta) and is zeroed in the file: a live heap runs ahead of any
// stamp, so only Sync writes one back and a killed process restarts with none.
// The mapping is released when the Region becomes unreachable.
func MapFile(path string, size uint64, cfg Config) (*Region, error) {
	if cfg.Mode != ModeFast {
		return nil, fmt.Errorf("pmem: MapFile maps ModeFast regions only, not %v", cfg.Mode)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	defer f.Close() // the mapping outlives the descriptor
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size = (size + LineBytes - 1) / LineBytes * LineBytes
	total := fi.Size()
	if total == 0 {
		if err := writeImageHeader(f, size, ModeFast, 0, 0, 0); err != nil {
			return nil, err
		}
		total = imageHeaderLen
	}
	var hdr [imageHeaderLen]byte
	n, _ := f.ReadAt(hdr[:], 0) // a short read is a truncated header
	if n == imageHeaderLen && total == imageHeaderLen && binary.LittleEndian.Uint64(hdr[8:]) == size {
		total += int64(size)
		if err := allocate(f, total); err != nil {
			return nil, fmt.Errorf("pmem: allocating %s: %w", path, err)
		}
	}
	size, id, off, err := parseImageHeader(hdr[:n], cfg, total)
	if err != nil {
		return nil, err
	}
	m, err := syscall.Mmap(int(f.Fd()), 0, int(total), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("pmem: mapping %s: %w", path, err)
	}
	r := newRegion(m[imageHeaderLen:], cfg)
	r.mapped, r.file = m, fi
	r.SetReplMeta(id, off)
	clear(m[replMetaHeaderOff:imageHeaderLen])
	runtime.AddCleanup(r, func(m []byte) { _ = syscall.Munmap(m) }, m) // nothing is left to report an unmap failure to
	return r, nil
}

// allocate extends f to n bytes with its blocks reserved. A filesystem without
// fallocate gets a sparse file instead, and with it the SIGBUS on a full disk.
func allocate(f *os.File, n int64) error {
	var err error = syscall.EINTR
	for err == syscall.EINTR {
		err = syscall.Fallocate(int(f.Fd()), 0, 0, n)
	}
	if err == syscall.EOPNOTSUPP || err == syscall.ENOSYS {
		return f.Truncate(n)
	}
	return err
}

// Mapped reports whether the region is a mapped file (MapFile), not a slice.
func (r *Region) Mapped() bool { return r.mapped != nil }

// Sync is a mapped region's clean shutdown, accessors stopped: the feed
// position goes back into the header and msync(MS_SYNC) writes the dirty
// pages — not the image — to the file. A slice-backed region has none.
func (r *Region) Sync() error {
	if r.mapped == nil {
		return nil
	}
	id, off := r.ReplMeta()
	binary.LittleEndian.PutUint64(r.mapped[replMetaHeaderOff:], id)
	binary.LittleEndian.PutUint64(r.mapped[replMetaHeaderOff+8:], off)
	_, _, errno := syscall.Syscall(syscall.SYS_MSYNC, uintptr(unsafe.Pointer(&r.mapped[0])), uintptr(len(r.mapped)), syscall.MS_SYNC)
	runtime.KeepAlive(r) // the cleanup must not unmap under the call
	if errno != 0 {
		return fmt.Errorf("pmem: msync: %w", errno)
	}
	return nil
}

// demandZero returns n zero bytes in a private anonymous mapping: outside the
// Go heap, so nothing clears or scans them, and the kernel supplies a page
// only when it is first touched. The mapping is released when owner becomes
// unreachable; a caller that uses the bytes after its last use of owner must
// runtime.KeepAlive(owner).
func demandZero[T any](owner *T, n uint64) ([]byte, error) {
	m, err := syscall.Mmap(-1, 0, int(n), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS)
	if err != nil {
		return nil, fmt.Errorf("pmem: mapping %d zero bytes: %w", n, err)
	}
	runtime.AddCleanup(owner, func(m []byte) { _ = syscall.Munmap(m) }, m)
	return m, nil
}

// lineFlags views b, 4-byte aligned, as per-line flags.
func lineFlags(b []byte) []uint32 {
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
}
