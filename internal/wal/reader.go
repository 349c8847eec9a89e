package wal

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/event"
)

// ScanResult is what recovery learns from a full log scan: the durable
// control state (meta, latest checkpoint, emit watermark), the durable
// stream position, and what had to be repaired.
type ScanResult struct {
	// Meta is the log's meta record (from the newest segment); nil when
	// the directory holds no segments.
	Meta *Meta
	// Checkpoint is the latest complete checkpoint, nil if none survived.
	Checkpoint *Checkpoint
	// WM is the lexicographic maximum emit watermark across all records;
	// HaveWM reports whether any watermark record was found.
	WM     EmitWM
	HaveWM bool
	// EmitWMs is every emit watermark record, in log order. Each release
	// round writes one and takes every match at its largest end, so on a
	// log no recovery has rewritten the Ends strictly increase.
	EmitWMs []EmitWM
	// Segments is the number of segment files scanned.
	Segments int
	// LastSeg is the highest segment ordinal present (0 when none).
	LastSeg uint64
	// Batches and Events count the durable batch records and the events
	// inside them.
	Batches uint64
	Events  uint64
	// LastSeq and LastTs are the maximum event sequence number and
	// timestamp across all batch records — the durable stream position.
	LastSeq uint64
	LastTs  int64
	// TruncatedBytes is how many torn-tail bytes were cut from the final
	// segment (0 for a clean log).
	TruncatedBytes int64
}

// errTorn marks a frame that is incomplete or fails its CRC; tolerated
// (and truncated) only at the tail of the final segment.
var errTorn = errors.New("torn frame")

// listSegments returns the segment file paths in dir in ordinal order,
// with their ordinals.
func listSegments(dir string) ([]string, []uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil
		}
		return nil, nil, &Error{Op: "scan", Path: dir, Err: err}
	}
	var paths []string
	var ords []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		var ord uint64
		if _, err := fmt.Sscanf(name, "wal-%08d.seg", &ord); err != nil || ord == 0 {
			continue
		}
		paths = append(paths, filepath.Join(dir, name))
		ords = append(ords, ord)
	}
	sort.Sort(&segSort{paths, ords})
	return paths, ords, nil
}

// segSort sorts paths and ords together by ordinal.
type segSort struct {
	paths []string
	ords  []uint64
}

func (s *segSort) Len() int           { return len(s.ords) }
func (s *segSort) Less(i, j int) bool { return s.ords[i] < s.ords[j] }
func (s *segSort) Swap(i, j int) {
	s.paths[i], s.paths[j] = s.paths[j], s.paths[i]
	s.ords[i], s.ords[j] = s.ords[j], s.ords[i]
}

// readFrame reads one frame from r into buf (grown as needed), returning
// the payload (type byte + body). It returns errTorn for a partial or
// corrupt frame and io.EOF at a clean end.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, errTorn
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n == 0 || n > maxFramePayload {
		return nil, errTorn
	}
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, errTorn
	}
	if crc32.Checksum(buf, castagnoli) != want {
		return nil, errTorn
	}
	return buf, nil
}

// schemaDict is the per-scan schema table: ids are segment-local, but
// identical schemas (same name and attribute list) are deduped so all
// replayed events of a stream share one *Schema across segments.
type schemaDict struct {
	byID  map[uint64]*event.Schema
	bySig map[string]*event.Schema
}

func newSchemaDict() *schemaDict {
	return &schemaDict{byID: make(map[uint64]*event.Schema), bySig: make(map[string]*event.Schema)}
}

// reset clears the id table at a segment boundary (dictionaries are
// re-emitted per segment) while keeping the signature-dedupe table.
func (d *schemaDict) reset() { clear(d.byID) }

// add registers one decoded schema record.
func (d *schemaDict) add(payload []byte) error {
	id, s, n, err := event.DecodeSchema(payload)
	if err != nil {
		return err
	}
	if n != len(payload) {
		return fmt.Errorf("wal: schema record has %d trailing bytes", len(payload)-n)
	}
	sig := s.Name() + "\x00" + strings.Join(s.Attrs(), "\x00")
	if prev, ok := d.bySig[sig]; ok {
		s = prev
	} else {
		d.bySig[sig] = s
	}
	d.byID[id] = s
	return nil
}

// decodeBatch decodes all events of a batch payload body.
func decodeBatch(body []byte, d *schemaDict) ([]*event.Event, error) {
	var events []*event.Event
	off := 0
	for off < len(body) {
		e, n, err := event.Decode(body[off:], d.byID)
		if err != nil {
			return nil, err
		}
		off += n
		events = append(events, e)
	}
	return events, nil
}

// Scan reads every segment in dir, CRC-validating all frames, collecting
// the durable control state, and truncating a torn tail in the final
// segment. A torn frame anywhere else is corruption and fails the scan.
// An empty or absent directory yields a zero ScanResult (fresh log).
func Scan(dir string) (*ScanResult, error) {
	paths, ords, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	res := &ScanResult{LastTs: minTs}
	var buf []byte
	dict := newSchemaDict()
	for i, path := range paths {
		last := i == len(paths)-1
		if err := scanSegment(path, last, res, dict, &buf); err != nil {
			return nil, err
		}
		res.Segments++
		res.LastSeg = ords[i]
	}
	if res.LastTs == minTs {
		res.LastTs = 0
	}
	return res, nil
}

// scanSegment scans one segment file, updating res. When last is true a
// torn tail is truncated off the file; otherwise it is an error.
func scanSegment(path string, last bool, res *ScanResult, dict *schemaDict, buf *[]byte) error {
	f, err := os.Open(path)
	if err != nil {
		return &Error{Op: "scan", Path: path, Err: err}
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return &Error{Op: "scan", Path: path, Err: err}
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return &Error{Op: "scan", Path: path, Err: err}
	}
	r := bufio.NewReaderSize(f, 64<<10)
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil || magic != Magic {
		return &Error{Op: "scan", Path: path, Err: fmt.Errorf("bad segment magic")}
	}
	dict.reset()
	offset := int64(len(Magic))
	for {
		payload, err := readFrame(r, *buf)
		if err == io.EOF {
			return nil
		}
		if err == errTorn {
			if !last {
				return &Error{Op: "scan", Path: path, Err: fmt.Errorf("torn frame at offset %d in non-final segment", offset)}
			}
			if terr := os.Truncate(path, offset); terr != nil {
				return &Error{Op: "scan", Path: path, Err: terr}
			}
			res.TruncatedBytes += size - offset
			return nil
		}
		if err != nil {
			return &Error{Op: "scan", Path: path, Err: err}
		}
		*buf = payload[:cap(payload)]
		if ferr := applyFrame(payload, res, dict); ferr != nil {
			return &Error{Op: "scan", Path: path, Err: ferr}
		}
		offset += int64(frameHeaderSize + len(payload))
	}
}

// applyFrame folds one validated frame into the scan result.
func applyFrame(payload []byte, res *ScanResult, dict *schemaDict) error {
	typ, body := payload[0], payload[1:]
	switch typ {
	case TMeta:
		var m Meta
		if err := json.Unmarshal(body, &m); err != nil {
			return fmt.Errorf("meta record: %w", err)
		}
		if m.Version != FormatVersion {
			return fmt.Errorf("meta record: unsupported format version %d", m.Version)
		}
		res.Meta = &m
	case TSchema:
		if err := dict.add(body); err != nil {
			return err
		}
	case TBatch:
		events, err := decodeBatch(body, dict)
		if err != nil {
			return err
		}
		res.Batches++
		res.Events += uint64(len(events))
		for _, e := range events {
			if e.Seq > res.LastSeq {
				res.LastSeq = e.Seq
			}
			if e.Ts > res.LastTs {
				res.LastTs = e.Ts
			}
		}
	case TCheckpoint:
		var cp Checkpoint
		if err := json.Unmarshal(body, &cp); err != nil {
			return fmt.Errorf("checkpoint record: %w", err)
		}
		res.Checkpoint = &cp
	case TEmitWM:
		wm, err := decodeEmitWM(body)
		if err != nil {
			return err
		}
		res.EmitWMs = append(res.EmitWMs, wm)
		// lexicographic max: replay-time rewrites never regress the
		// durable watermark.
		if !res.HaveWM || res.WM.Less(wm) {
			res.WM = wm
			res.HaveWM = true
		}
	default:
		return fmt.Errorf("unknown record type %d", typ)
	}
	return nil
}

// decodeEmitWM parses a TEmitWM body.
func decodeEmitWM(body []byte) (EmitWM, error) {
	end, n := binary.Varint(body)
	if n <= 0 {
		return EmitWM{}, fmt.Errorf("emitwm record: bad end varint")
	}
	cnt, m := binary.Uvarint(body[n:])
	if m <= 0 {
		return EmitWM{}, fmt.Errorf("emitwm record: bad count varint")
	}
	if n+m != len(body) {
		return EmitWM{}, fmt.Errorf("emitwm record: %d trailing bytes", len(body)-n-m)
	}
	return EmitWM{End: end, Count: cnt}, nil
}

// Replay streams every durable batch record whose newest event is at or
// past horizon (in timestamp ticks) through fn, one call per record, in
// log order — reproducing the original run's batch boundaries exactly.
// Call after Scan has truncated any torn tail; a torn frame here is an
// error. fn errors abort the replay.
func Replay(dir string, horizon int64, fn func([]*event.Event) error) error {
	paths, _, err := listSegments(dir)
	if err != nil {
		return err
	}
	var buf []byte
	dict := newSchemaDict()
	for _, path := range paths {
		if err := replaySegment(path, horizon, fn, dict, &buf); err != nil {
			return err
		}
	}
	return nil
}

// replaySegment replays one segment's batch records.
func replaySegment(path string, horizon int64, fn func([]*event.Event) error, dict *schemaDict, buf *[]byte) error {
	f, err := os.Open(path)
	if err != nil {
		return &Error{Op: "scan", Path: path, Err: err}
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 64<<10)
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil || magic != Magic {
		return &Error{Op: "scan", Path: path, Err: fmt.Errorf("bad segment magic")}
	}
	dict.reset()
	for {
		payload, err := readFrame(r, *buf)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return &Error{Op: "scan", Path: path, Err: err}
		}
		*buf = payload[:cap(payload)]
		typ, body := payload[0], payload[1:]
		switch typ {
		case TSchema:
			if err := dict.add(body); err != nil {
				return &Error{Op: "scan", Path: path, Err: err}
			}
		case TBatch:
			events, err := decodeBatch(body, dict)
			if err != nil {
				return &Error{Op: "scan", Path: path, Err: err}
			}
			max := minTs
			for _, e := range events {
				if e.Ts > max {
					max = e.Ts
				}
			}
			if max < horizon {
				continue
			}
			if err := fn(events); err != nil {
				return err
			}
		}
	}
}
