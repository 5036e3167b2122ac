package pmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// File persistence models the DAX file that names a persistent segment in
// the paper's system model (§2.1): a heap can be written to a file on clean
// shutdown and re-mapped — possibly by a different process, at a different
// address — on the next start. Only the *persistent* image is saved: in
// crash-sim mode that is the shadow, so saving right after a simulated crash
// round-trips exactly the survivable state.
//
// Image format (version 3, magic RPMEM003): an 8-byte magic, then five
// little-endian 64-bit header words — region size in bytes, the Mode the
// region ran in, a flags word (bit 0: written by an online snapshot), and
// the replication metadata pair (stream ID and byte offset, see SetReplMeta)
// — followed by the region's words, little-endian: the Region's byte view as
// it stands (TestImageFormatMatchesReferenceEncoder holds the two together).
// Any other magic is ErrBadImage.
// The header's mode word is validated against the loading Config: silently
// attaching a fast-mode image as crash-sim (or the reverse) would change
// the image's durability semantics underneath its data, so a mismatch is
// ErrBadImage.

var fileMagic = [8]byte{'R', 'P', 'M', 'E', 'M', '0', '0', '3'}

const (
	// imageHeaderLen is the byte offset of the first data word in a
	// version-3 image: magic + size + mode + flags + replID + replOffset.
	imageHeaderLen = 8 + 5*8
	// imageFlagOnline marks an image written by SaveFileOnline rather than
	// a quiesced Save. Informational: both are consistent cut-over images.
	imageFlagOnline = uint64(1)
	// replMetaHeaderOff is the byte offset of the replication metadata pair
	// inside the header (SaveFileOnline re-stamps it under the cut-over
	// fence, after the metadata has reached its final value).
	replMetaHeaderOff = 8 + 3*8
)

// writeImageHeader writes the version-3 image header.
func writeImageHeader(w io.Writer, size uint64, mode Mode, flags, replID, replOff uint64) error {
	var hdr [imageHeaderLen]byte
	copy(hdr[:8], fileMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], size)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(mode))
	binary.LittleEndian.PutUint64(hdr[24:], flags)
	binary.LittleEndian.PutUint64(hdr[32:], replID)
	binary.LittleEndian.PutUint64(hdr[40:], replOff)
	_, err := w.Write(hdr[:])
	return err
}

// Save writes the region's persistent image to w: the header, then the image
// bytes in one Write. It is the quiesced path — Close, after every accessor
// has stopped — and reads the image plainly; a checkpoint of a region that is
// still being written is SaveFileOnline.
func (r *Region) Save(w io.Writer) error {
	id, off := r.ReplMeta()
	if err := writeImageHeader(w, r.size, r.cfg.Mode, 0, id, off); err != nil {
		return err
	}
	img := r.bytes
	if r.shadow != nil {
		img = r.shadow
	}
	_, err := w.Write(img)
	runtime.KeepAlive(r) // the shadow's mapping must outlive the Write
	return err
}

// ErrBadImage is returned when a file is not a valid region image — wrong
// magic, torn/truncated content, or a mode that contradicts the loading
// configuration.
var ErrBadImage = errors.New("pmem: bad region image")

// LoadRegion reads a persistent image from rd and returns a Region built
// from it with the given configuration. The image populates both the
// volatile and (in crash-sim mode) shadow images, modeling a fresh DAX map
// of previously persisted state. Every way an image can be short or
// inconsistent — including a partially-written checkpoint a crash left
// behind — reports ErrBadImage, so callers can distinguish "no usable
// image" from I/O failure. The header's size word is trusted (the region is
// allocated from it before the body is read): use LoadFile for bytes that
// arrived from outside the process.
func LoadRegion(rd io.Reader, cfg Config) (*Region, error) {
	return loadRegion(rd, cfg, -1)
}

// parseImageHeader validates an image header against the loading Config and,
// when the image's total length is known (fileSize >= 0), against that: the
// size word must account for exactly the bytes that follow the header, checked
// before anything is allocated or mapped from it. It returns the region size
// and the stamped feed position. LoadFile and MapFile share it.
func parseImageHeader(hdr []byte, cfg Config, fileSize int64) (size, replID, replOff uint64, err error) {
	if len(hdr) < imageHeaderLen {
		return 0, 0, 0, fmt.Errorf("%w: truncated header (%d bytes)", ErrBadImage, len(hdr))
	}
	if [8]byte(hdr[:8]) != fileMagic {
		return 0, 0, 0, fmt.Errorf("%w: bad magic %q", ErrBadImage, hdr[:8])
	}
	size = binary.LittleEndian.Uint64(hdr[8:])
	if size == 0 || size%LineBytes != 0 {
		return 0, 0, 0, fmt.Errorf("%w: bad size %d", ErrBadImage, size)
	}
	if fileSize >= 0 && uint64(fileSize)-imageHeaderLen != size {
		return 0, 0, 0, fmt.Errorf("%w: header says %d image bytes, file holds %d",
			ErrBadImage, size, fileSize-imageHeaderLen)
	}
	mode := Mode(binary.LittleEndian.Uint64(hdr[16:]))
	if mode != ModeFast && mode != ModeCrashSim {
		return 0, 0, 0, fmt.Errorf("%w: bad mode word %d", ErrBadImage, int(mode))
	}
	if mode != cfg.Mode {
		return 0, 0, 0, fmt.Errorf("%w: image was saved in %v mode, loading config wants %v",
			ErrBadImage, mode, cfg.Mode)
	}
	return size, binary.LittleEndian.Uint64(hdr[replMetaHeaderOff:]), binary.LittleEndian.Uint64(hdr[replMetaHeaderOff+8:]), nil
}

// loadRegion is LoadRegion for an image whose total length may be known
// (fileSize >= 0, see parseImageHeader).
func loadRegion(rd io.Reader, cfg Config, fileSize int64) (*Region, error) {
	var hdr [imageHeaderLen]byte
	n, _ := io.ReadFull(rd, hdr[:]) // a short read is a truncated header
	size, id, off, err := parseImageHeader(hdr[:n], cfg, fileSize)
	if err != nil {
		return nil, err
	}
	r := NewRegion(size, cfg)
	r.SetReplMeta(id, off)
	if _, err := io.ReadFull(rd, r.bytes); err != nil {
		return nil, fmt.Errorf("%w: truncated image: %v", ErrBadImage, err)
	}
	// The shadow starts zero: copying only the lines that are not leaves a
	// mostly empty image's shadow mostly untouched.
	for l := uint64(0); r.shadow != nil && l < size/LineBytes; l++ {
		if [LineWords]uint64(r.words[l*LineWords:]) != ([LineWords]uint64{}) {
			copy(r.shadow[l*LineBytes:], r.bytes[l*LineBytes:(l+1)*LineBytes])
		}
	}
	return r, nil
}

// SaveFile writes the region's persistent image to path atomically, like a
// careful DAX-file checkpoint: written to a temp file, then PublishFile.
func (r *Region) SaveFile(path string) error {
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return err
	}
	if err := r.Save(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	return PublishFile(f, path, nil)
}

// PublishFile makes the fully written temp file f the image at path, durably
// and atomically: fsync, close, rename over the previous image, fsync the
// parent directory — a crash at any point leaves either the previous image
// or the new one, never a tear. The directory sync matters: rename alone
// orders the new name only in the page cache, and a power loss after the
// publish returned could otherwise still resurrect the old image — losing a
// checkpoint the caller already treated as durable. beforeRename, when
// non-nil, runs between the close and the rename (crash injection). On any
// failure the temp file is removed. It is the one publish every image
// writer — SaveFile, SaveFileOnline, a replica's download — ends with.
func PublishFile(f *os.File, path string, beforeRename func()) error {
	tmp := f.Name()
	err := f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		if beforeRename != nil {
			beforeRename()
		}
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// LoadFile reads a region image from path. Image files reach a replica over
// the network, so the header is not trusted: a size word that disagrees with
// the file's own length is ErrBadImage before any memory is sized from it.
func LoadFile(path string, cfg Config) (*Region, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return loadRegion(f, cfg, fi.Size())
}

// ParseImageMeta extracts the replication metadata pair from an image
// header prefix (the first ImageMetaLen bytes of an image stream) without
// loading the region. The replication layer uses this to learn a streamed
// bootstrap image's offset before the image is ever attached.
func ParseImageMeta(hdr []byte) (replID, replOff uint64, err error) {
	if len(hdr) < imageHeaderLen {
		return 0, 0, fmt.Errorf("%w: truncated header", ErrBadImage)
	}
	if [8]byte(hdr[:8]) != fileMagic {
		return 0, 0, fmt.Errorf("%w: bad magic %q", ErrBadImage, hdr[:8])
	}
	return binary.LittleEndian.Uint64(hdr[replMetaHeaderOff:]),
		binary.LittleEndian.Uint64(hdr[replMetaHeaderOff+8:]), nil
}

// ImageMetaLen is how many leading image bytes ParseImageMeta needs.
const ImageMetaLen = imageHeaderLen

// ReadImageMeta reads the replication metadata pair from the image at path.
func ReadImageMeta(path string) (replID, replOff uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	hdr := make([]byte, imageHeaderLen)
	n, err := io.ReadFull(f, hdr)
	if err != nil && err != io.ErrUnexpectedEOF {
		return 0, 0, fmt.Errorf("%w: %v", ErrBadImage, err)
	}
	return ParseImageMeta(hdr[:n])
}
