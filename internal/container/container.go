// Package container implements the lightweight bitstream container the
// video platform moves between services: a stream header plus length- and
// checksum-framed packets. The per-packet CRC, the chunk-level CRC in
// the index footer, and the stream-level frame count are the
// "high-level integrity checks (i.e., video length must match the
// input)" the paper uses to bound corruption blast radius (§4.4).
package container

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"openvcu/internal/codec"
)

// Magic identifies the container format.
var Magic = [4]byte{'O', 'V', 'C', 'U'}

const version = 1

// firstPacketAlloc bounds what ReadPacket allocates on a packet header's
// word alone; real packets are far smaller.
const firstPacketAlloc = 1 << 20

// StreamInfo is the container-level stream header.
type StreamInfo struct {
	Profile       codec.Profile
	Width, Height int
	FPS           int
	// FrameCount is the number of SHOWN frames the stream must decode to;
	// the integrity check of §4.4.
	FrameCount int
}

// Writer serializes packets to an io.Writer.
type Writer struct {
	w     io.Writer
	wrote bool
	pos   int64
	index []IndexEntry
	// chunkCRC accumulates the current chunk's payload checksum; it is
	// mirrored into the chunk's index entry as packets arrive.
	chunkCRC uint32
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// WriteHeader writes the stream header. Must be called exactly once,
// before any packet.
func (cw *Writer) WriteHeader(info StreamInfo) error {
	if cw.wrote {
		return fmt.Errorf("container: header already written")
	}
	cw.wrote = true
	buf := make([]byte, 0, 24)
	buf = append(buf, Magic[:]...)
	buf = append(buf, version, byte(info.Profile))
	buf = binary.BigEndian.AppendUint16(buf, uint16(info.Width))
	buf = binary.BigEndian.AppendUint16(buf, uint16(info.Height))
	buf = binary.BigEndian.AppendUint16(buf, uint16(info.FPS))
	buf = binary.BigEndian.AppendUint32(buf, uint32(info.FrameCount))
	n, err := cw.w.Write(buf)
	cw.pos += int64(n)
	return err
}

// WritePacket appends one encoded frame.
func (cw *Writer) WritePacket(p codec.Packet) error {
	if !cw.wrote {
		return fmt.Errorf("container: WriteHeader not called")
	}
	var flags byte
	if p.Show {
		flags |= 1
	}
	if p.Keyframe {
		flags |= 2
	}
	buf := make([]byte, 0, 14+len(p.Data))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.Data)))
	buf = append(buf, flags, byte(p.QP))
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(p.DisplayIdx)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(p.Data))
	buf = append(buf, p.Data...)
	if p.Keyframe {
		// A keyframe opens a new closed-GOP chunk; its chunk-level CRC
		// accumulates from here.
		cw.index = append(cw.index, IndexEntry{Offset: cw.pos, DisplayIdx: p.DisplayIdx})
		cw.chunkCRC = 0
	}
	if len(cw.index) > 0 {
		cw.chunkCRC = crc32.Update(cw.chunkCRC, crc32.IEEETable, p.Data)
		cw.index[len(cw.index)-1].CRC = cw.chunkCRC
	}
	n, err := cw.w.Write(buf)
	cw.pos += int64(n)
	return err
}

// Reader deserializes a container stream.
type Reader struct {
	r    io.Reader
	info StreamInfo
	read bool
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// ReadHeader parses and returns the stream header.
func (cr *Reader) ReadHeader() (StreamInfo, error) {
	if cr.read {
		return cr.info, nil
	}
	buf := make([]byte, 16)
	if _, err := io.ReadFull(cr.r, buf); err != nil {
		return StreamInfo{}, fmt.Errorf("container: short header: %w", err)
	}
	if [4]byte(buf[:4]) != Magic {
		return StreamInfo{}, fmt.Errorf("container: bad magic %q", buf[:4])
	}
	if buf[4] != version {
		return StreamInfo{}, fmt.Errorf("container: unsupported version %d", buf[4])
	}
	cr.info = StreamInfo{
		Profile:    codec.Profile(buf[5]),
		Width:      int(binary.BigEndian.Uint16(buf[6:8])),
		Height:     int(binary.BigEndian.Uint16(buf[8:10])),
		FPS:        int(binary.BigEndian.Uint16(buf[10:12])),
		FrameCount: int(binary.BigEndian.Uint32(buf[12:16])),
	}
	cr.read = true
	return cr.info, nil
}

// ReadPacket returns the next packet, or io.EOF at clean end of stream.
// A checksum mismatch returns an error naming the corruption — the signal
// the failure-management layer retries on.
func (cr *Reader) ReadPacket() (codec.Packet, error) {
	if !cr.read {
		if _, err := cr.ReadHeader(); err != nil {
			return codec.Packet{}, err
		}
	}
	// The first four bytes are a packet's size or the index footer's
	// sentinel, and an empty stream's footer is shorter than a packet
	// header: look at them before asking for the rest.
	hdr := make([]byte, 14)
	if _, err := io.ReadFull(cr.r, hdr[:4]); err != nil {
		if err == io.EOF {
			return codec.Packet{}, io.EOF
		}
		return codec.Packet{}, fmt.Errorf("container: short packet header: %w", err)
	}
	if [4]byte(hdr[:4]) == indexMagic {
		// Chunk-index footer: clean end of packet data.
		return codec.Packet{}, io.EOF
	}
	if _, err := io.ReadFull(cr.r, hdr[4:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return codec.Packet{}, fmt.Errorf("container: short packet header: %w", err)
	}
	size := binary.BigEndian.Uint32(hdr[:4])
	if size > 1<<30 {
		return codec.Packet{}, fmt.Errorf("container: implausible packet size %d", size)
	}
	flags := hdr[4]
	qp := int(hdr[5])
	displayIdx := int(int32(binary.BigEndian.Uint32(hdr[6:10])))
	wantCRC := binary.BigEndian.Uint32(hdr[10:14])
	// size is only a claim until the bytes arrive: allocate what an
	// ordinary packet needs at once and double from there, so a hostile
	// header costs firstPacketAlloc plus a small multiple of the bytes
	// actually present, not the gigabyte it claims.
	data := make([]byte, min(size, firstPacketAlloc))
	_, err := io.ReadFull(cr.r, data)
	for err == nil && uint32(len(data)) < size {
		grown := make([]byte, min(int(size), 2*len(data)))
		_, err = io.ReadFull(cr.r, grown[copy(grown, data):])
		data = grown
	}
	if err != nil {
		return codec.Packet{}, fmt.Errorf("container: truncated packet: %w", err)
	}
	if got := crc32.ChecksumIEEE(data); got != wantCRC {
		return codec.Packet{}, fmt.Errorf("container: packet checksum mismatch (got %08x want %08x)", got, wantCRC)
	}
	return codec.Packet{
		Data: data, Show: flags&1 != 0, Keyframe: flags&2 != 0,
		DisplayIdx: displayIdx, QP: qp,
	}, nil
}

// ReadAll reads every packet and verifies the shown-frame count against
// the header — the end-to-end length integrity check.
func (cr *Reader) ReadAll() (StreamInfo, []codec.Packet, error) {
	info, err := cr.ReadHeader()
	if err != nil {
		return info, nil, err
	}
	var pkts []codec.Packet
	shown := 0
	for {
		p, err := cr.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			return info, nil, err
		}
		if p.Show {
			shown++
		}
		pkts = append(pkts, p)
	}
	if shown != info.FrameCount {
		return info, nil, fmt.Errorf("container: stream has %d shown frames, header promises %d",
			shown, info.FrameCount)
	}
	return info, pkts, nil
}
