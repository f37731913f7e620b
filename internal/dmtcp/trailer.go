package dmtcp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// ErrCorruptImage reports an image that was structurally valid when
// written but whose bytes no longer match their recorded checksums —
// damage in flight or at rest (bit rot, a torn write, a tampered
// store), as opposed to ErrBadImage's "not a valid image stream".
// Integrity failures are worth distinguishing: a corrupt image usually
// has intact siblings (an older generation, a chain ancestor) worth
// falling back to, while a bad image usually means the caller opened
// the wrong bytes altogether.
var ErrCorruptImage = errors.New("dmtcp: corrupt checkpoint image")

// The integrity trailer: appended after the image body by every writer.
// Legacy v1+gzip images carry none (their body is read through a
// buffered inflater that may overshoot the member's end; the gzip CRC
// covers that body instead). The trailer is magic + body length + CRC-32C of
// every body byte, magic included, so any single-bit flip anywhere in
// the stream — headers, payload, or the trailer itself — is detected.
// CRC-32C rather than a 64-bit hash because the checksum sits on the
// checkpoint and restart critical paths: the stdlib implementation is
// hardware-accelerated on amd64/arm64, so hashing costs well under a
// millisecond per image instead of tens. Readers accept trailer-less
// images for compatibility with pre-trailer writers; Image.Verified
// reports which case was hit.
var trailerMagic = [8]byte{'C', 'R', 'A', 'C', 'S', 'U', 'M', '1'}

var trailerCRCTable = crc32.MakeTable(crc32.Castagnoli)

const trailerSize = 24

// bodyHash accumulates the trailer checksum (CRC-32C widened into the
// trailer's u64 slot).
type bodyHash struct{ crc uint32 }

func (b *bodyHash) Write(p []byte) {
	b.crc = crc32.Update(b.crc, trailerCRCTable, p)
}

func (b *bodyHash) Sum64() uint64 { return uint64(b.crc) }

// trailerWriter hashes and counts the image body flowing through it;
// Finish appends the trailer to the underlying writer.
type trailerWriter struct {
	w io.Writer
	h bodyHash
	n uint64
}

func newTrailerWriter(w io.Writer) *trailerWriter {
	return &trailerWriter{w: w}
}

func (tw *trailerWriter) Write(p []byte) (int, error) {
	n, err := tw.w.Write(p)
	tw.h.Write(p[:n])
	tw.n += uint64(n)
	return n, err
}

func (tw *trailerWriter) Finish() error {
	var tr [trailerSize]byte
	copy(tr[:8], trailerMagic[:])
	binary.LittleEndian.PutUint64(tr[8:16], tw.n)
	binary.LittleEndian.PutUint64(tr[16:24], tw.h.Sum64())
	_, err := tw.w.Write(tr[:])
	return err
}

// hashingReader hashes and counts the image body as the parser consumes
// it, so the trailer can be verified without a second pass.
type hashingReader struct {
	r io.Reader
	h bodyHash
	n uint64
}

func newHashingReader(r io.Reader) *hashingReader {
	return &hashingReader{r: r}
}

func (hr *hashingReader) Read(p []byte) (int, error) {
	n, err := hr.r.Read(p)
	hr.h.Write(p[:n])
	hr.n += uint64(n)
	return n, err
}

// verifyTrailer classifies whatever follows a fully-parsed image body:
// nothing (a legacy, pre-trailer image: accepted, not verified), a
// matching trailer followed by EOF (verified), or anything else — a
// partial trailer, a checksum or length mismatch, bytes beyond the
// trailer — which all report ErrCorruptImage. Strictness is safe
// because every image occupies its own stream (a Store entry or file);
// there is no valid reason for bytes past the trailer.
func verifyTrailer(hr *hashingReader) (bool, error) {
	bodyLen, bodySum := hr.n, hr.h.Sum64()
	var tr [trailerSize + 1]byte
	n, err := io.ReadFull(hr.r, tr[:])
	switch {
	case n == 0:
		if err == io.EOF {
			return false, nil // legacy image: body ends the stream
		}
		return false, err
	case n == trailerSize && (err == io.EOF || err == io.ErrUnexpectedEOF):
		if !bytes.Equal(tr[:8], trailerMagic[:]) {
			return false, fmt.Errorf("%w: bad trailer magic %q", ErrCorruptImage, tr[:8])
		}
		if got := binary.LittleEndian.Uint64(tr[8:16]); got != bodyLen {
			return false, fmt.Errorf("%w: trailer claims %d body bytes, read %d", ErrCorruptImage, got, bodyLen)
		}
		if got := binary.LittleEndian.Uint64(tr[16:24]); got != bodySum {
			return false, fmt.Errorf("%w: image checksum mismatch", ErrCorruptImage)
		}
		return true, nil
	case n < trailerSize:
		return false, fmt.Errorf("%w: truncated trailer (%d of %d bytes)", ErrCorruptImage, n, trailerSize)
	default:
		return false, fmt.Errorf("%w: trailing bytes after image trailer", ErrCorruptImage)
	}
}

// VerifyContent re-checks a parsed image's internal consistency: every
// recorded per-shard content hash still matches the decoded bytes (for
// an unmaterialized v3 delta) and every materialized region carries
// exactly the payload its header claims. ReadImage already enforces
// both while parsing; VerifyContent exists for images held in memory —
// a Verify pass over a long-lived Image, or one assembled by
// ApplyDelta.
func (img *Image) VerifyContent() error {
	if img.Delta != nil && !img.Delta.Materialized {
		for i := range img.Delta.shards {
			sh := &img.Delta.shards[i]
			if fnvSum64(sh.data) != sh.hash {
				return fmt.Errorf("%w: shard %d content hash mismatch", ErrCorruptImage, i)
			}
		}
		return nil
	}
	for i, rd := range img.Regions {
		if uint64(len(rd.Data)) != rd.Len {
			return fmt.Errorf("%w: region %d carries %d of %d bytes", ErrBadImage, i, len(rd.Data), rd.Len)
		}
	}
	return nil
}
