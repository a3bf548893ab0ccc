package table

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"
	"sort"
	"strings"

	"datasynth/internal/faultfs"
)

// Binary columnar export (.dsc — "DataSynth columns"): the bulk-load
// format the CSV connector is too slow for. One file per table, typed
// column blocks, no per-row framing, so a loader can mmap or stream a
// column straight into an array. The layout (all integers
// little-endian, uvarint = unsigned LEB128):
//
//	file   := magic "DSC1" | kind (1 byte: 'N' node, 'E' edge)
//	        | typeName (uvarint len + bytes) | rows uvarint
//	        | ncols uvarint
//	        | [kind=='E': block(tail int64s) block(head int64s)]
//	        | ncols × column
//	column := name (uvarint len + bytes, the full "<Type>.<prop>" name)
//	        | valueKind (1 byte: ValueKind)
//	        | block
//	block  := payload length uvarint | payload | crc32c(payload) uint32
//	payload:
//	  int/date: rows × int64
//	  float:    rows × IEEE-754 bits
//	  string:   (rows+1) × uint64 cumulative byte offsets, then the
//	            concatenated UTF-8 bytes (value i spans
//	            [offset[i], offset[i+1]))
//
// Every block carries a CRC-32C trailer so a truncated or corrupted
// file is detected at load, and the whole format round-trips exactly:
// OpenColumnar(WriteDirColumnar(d)) reproduces every value bit for bit
// (floats travel as raw bits, not decimal text).

// ColumnarExt is the file extension of the columnar format.
const ColumnarExt = ".dsc"

const columnarMagic = "DSC1"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// columnar block encoding ----------------------------------------------------

// blockWriter streams one block: payload length first, then payload
// bytes through a running CRC, then the CRC trailer.
type blockWriter struct {
	w   io.Writer
	crc uint32
}

func newBlock(w io.Writer, payloadLen uint64) (*blockWriter, error) {
	var scratch [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(scratch[:], payloadLen)
	if _, err := w.Write(scratch[:n]); err != nil {
		return nil, err
	}
	return &blockWriter{w: w}, nil
}

func (b *blockWriter) Write(p []byte) (int, error) {
	b.crc = crc32.Update(b.crc, castagnoli, p)
	return b.w.Write(p)
}

func (b *blockWriter) close() error {
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], b.crc)
	_, err := b.w.Write(tail[:])
	return err
}

// writeIntBlock emits vals as a raw little-endian int64 block.
func writeIntBlock(w io.Writer, vals []int64) error {
	b, err := newBlock(w, uint64(8*len(vals)))
	if err != nil {
		return err
	}
	bp := getEncBuf()
	defer putEncBuf(bp)
	buf := (*bp)[:0]
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		if len(buf) >= csvFlushAt {
			if _, err := b.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if _, err := b.Write(buf); err != nil {
		return err
	}
	return b.close()
}

// writeFloatBlock emits vals as raw IEEE-754 bit patterns.
func writeFloatBlock(w io.Writer, vals []float64) error {
	b, err := newBlock(w, uint64(8*len(vals)))
	if err != nil {
		return err
	}
	bp := getEncBuf()
	defer putEncBuf(bp)
	buf := (*bp)[:0]
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		if len(buf) >= csvFlushAt {
			if _, err := b.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if _, err := b.Write(buf); err != nil {
		return err
	}
	return b.close()
}

// writeStringBlock emits the offsets array followed by the
// concatenated bytes.
func writeStringBlock(w io.Writer, vals []string) error {
	var total uint64
	for _, s := range vals {
		total += uint64(len(s))
	}
	b, err := newBlock(w, uint64(8*(len(vals)+1))+total)
	if err != nil {
		return err
	}
	bp := getEncBuf()
	defer putEncBuf(bp)
	buf := (*bp)[:0]
	var off uint64
	buf = binary.LittleEndian.AppendUint64(buf, 0)
	for _, s := range vals {
		off += uint64(len(s))
		buf = binary.LittleEndian.AppendUint64(buf, off)
		if len(buf) >= csvFlushAt {
			if _, err := b.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	for _, s := range vals {
		buf = append(buf, s...)
		if len(buf) >= csvFlushAt {
			if _, err := b.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if _, err := b.Write(buf); err != nil {
		return err
	}
	return b.close()
}

func writeColumn(w io.Writer, pt *PropertyTable) error {
	if err := writeName(w, pt.Name); err != nil {
		return err
	}
	if _, err := w.Write([]byte{byte(pt.Kind)}); err != nil {
		return err
	}
	switch pt.Kind {
	case KindString:
		return writeStringBlock(w, pt.strs)
	case KindFloat:
		return writeFloatBlock(w, pt.floats)
	default:
		return writeIntBlock(w, pt.ints)
	}
}

func writeName(w io.Writer, name string) error {
	var scratch [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(scratch[:], uint64(len(name)))
	if _, err := w.Write(scratch[:n]); err != nil {
		return err
	}
	_, err := io.WriteString(w, name)
	return err
}

func writeHeader(w io.Writer, kind byte, typeName string, rows int64, ncols int) error {
	if _, err := io.WriteString(w, columnarMagic); err != nil {
		return err
	}
	if _, err := w.Write([]byte{kind}); err != nil {
		return err
	}
	if err := writeName(w, typeName); err != nil {
		return err
	}
	var scratch [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(scratch[:], uint64(rows))
	n += binary.PutUvarint(scratch[n:], uint64(ncols))
	_, err := w.Write(scratch[:n])
	return err
}

// WriteNodeColumnar writes one node type as a columnar file. count is
// the instance count (property tables, if any, must match it).
func WriteNodeColumnar(w io.Writer, typeName string, count int64, props []*PropertyTable) error {
	for _, pt := range props {
		if pt.Len() != count {
			return fmt.Errorf("table: property %s has %d rows, expected %d", pt.Name, pt.Len(), count)
		}
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if err := writeHeader(bw, 'N', typeName, count, len(props)); err != nil {
		return err
	}
	for _, pt := range props {
		if err := writeColumn(bw, pt); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteEdgeColumnar writes one edge type as a columnar file: tail and
// head blocks, then the edge property columns.
func WriteEdgeColumnar(w io.Writer, et *EdgeTable, props []*PropertyTable) error {
	for _, pt := range props {
		if pt.Len() != et.Len() {
			return fmt.Errorf("table: edge property %s has %d rows, edge table has %d", pt.Name, pt.Len(), et.Len())
		}
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if err := writeHeader(bw, 'E', et.Name, et.Len(), len(props)); err != nil {
		return err
	}
	if err := writeIntBlock(bw, et.Tail); err != nil {
		return err
	}
	if err := writeIntBlock(bw, et.Head); err != nil {
		return err
	}
	for _, pt := range props {
		if err := writeColumn(bw, pt); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteDirColumnar exports the dataset as nodes_<Type>.dsc and
// edges_<Type>.dsc files. Tables are written concurrently and
// committed atomically; see Export.
func (d *Dataset) WriteDirColumnar(dir string) error {
	_, err := d.Export(dir, ExportOptions{Format: FormatColumnar})
	return err
}

// columnar decoding ----------------------------------------------------------

// ColumnarTable is one decoded columnar file.
type ColumnarTable struct {
	// TypeName is the node or edge type the file holds.
	TypeName string
	// Rows is the instance (or edge) count.
	Rows int64
	// Edges holds the structure for edge tables; nil for node tables.
	Edges *EdgeTable
	// Props are the property columns in file order.
	Props []*PropertyTable
}

// maxColumnarName, maxColumnarBlock and maxColumnarRows bound decoded
// lengths as a corruption guard, so a garbled header fails cleanly
// instead of panicking or attempting an absurd allocation.
const (
	maxColumnarName  = 1 << 16
	maxColumnarBlock = 1 << 34
	// maxColumnarRows keeps every fixed-width block under
	// maxColumnarBlock and, crucially, rows well inside int64, so
	// derived sizes (8*(rows+1), make lengths) cannot wrap negative.
	maxColumnarRows = maxColumnarBlock / 8
)

// columnarReader is the decoder's input: a buffered reader that knows
// how many input bytes are left, so a declared length is checked
// against what the input can still deliver before anything is
// allocated for it. A corrupt length then fails as a truncated file
// instead of demanding up to maxColumnarBlock bytes of memory.
type columnarReader struct {
	*bufio.Reader
	rest *io.LimitedReader // the part of the input not yet buffered
}

// newColumnarReader sizes r's remaining input: by seeking when r is an
// io.Seeker (files, bytes.Reader), else by reading the stream to its
// end first, so the budget is always exact.
func newColumnarReader(r io.Reader) (*columnarReader, error) {
	var size int64
	if s, ok := r.(io.Seeker); ok {
		cur, err := s.Seek(0, io.SeekCurrent)
		if err != nil {
			return nil, fmt.Errorf("table: sizing columnar input: %w", err)
		}
		end, err := s.Seek(0, io.SeekEnd)
		if err != nil {
			return nil, fmt.Errorf("table: sizing columnar input: %w", err)
		}
		if _, err := s.Seek(cur, io.SeekStart); err != nil {
			return nil, fmt.Errorf("table: sizing columnar input: %w", err)
		}
		size = max(end-cur, 0)
	} else {
		data, err := io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("table: reading columnar input: %w", err)
		}
		r, size = bytes.NewReader(data), int64(len(data))
	}
	rest := &io.LimitedReader{R: r, N: size}
	return &columnarReader{Reader: bufio.NewReaderSize(rest, 1<<16), rest: rest}, nil
}

// left returns the number of input bytes not yet read.
func (r *columnarReader) left() uint64 {
	return uint64(r.rest.N) + uint64(r.Buffered())
}

func readName(r *columnarReader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > maxColumnarName {
		return "", fmt.Errorf("table: columnar name length %d exceeds limit", n)
	}
	if n > r.left() {
		return "", fmt.Errorf("table: columnar name length %d exceeds the %d bytes left (file truncated or corrupt)", n, r.left())
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// readBlock reads one block's payload, verifying length and CRC.
// wantLen < 0 accepts any length.
func readBlock(r *columnarReader, wantLen int64, what string) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if wantLen >= 0 && n != uint64(wantLen) {
		return nil, fmt.Errorf("table: columnar %s block is %d bytes, want %d", what, n, wantLen)
	}
	if n > maxColumnarBlock {
		return nil, fmt.Errorf("table: columnar %s block length %d exceeds limit (file corrupt)", what, n)
	}
	if n > r.left() {
		return nil, fmt.Errorf("table: columnar %s block length %d exceeds the %d bytes left (file truncated or corrupt)", what, n, r.left())
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("table: columnar %s block truncated: %w", what, err)
	}
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, fmt.Errorf("table: columnar %s block missing checksum: %w", what, err)
	}
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(tail[:]); got != want {
		return nil, fmt.Errorf("table: columnar %s block checksum mismatch (file corrupt)", what)
	}
	return payload, nil
}

func readIntBlock(r *columnarReader, rows int64, what string) ([]int64, error) {
	payload, err := readBlock(r, 8*rows, what)
	if err != nil {
		return nil, err
	}
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = int64(binary.LittleEndian.Uint64(payload[8*i:]))
	}
	return vals, nil
}

func readFloatBlock(r *columnarReader, rows int64, what string) ([]float64, error) {
	payload, err := readBlock(r, 8*rows, what)
	if err != nil {
		return nil, err
	}
	vals := make([]float64, rows)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
	}
	return vals, nil
}

func readStringBlock(r *columnarReader, rows int64, what string) ([]string, error) {
	payload, err := readBlock(r, -1, what)
	if err != nil {
		return nil, err
	}
	offBytes := uint64(8 * (rows + 1))
	if uint64(len(payload)) < offBytes {
		return nil, fmt.Errorf("table: columnar %s block too short for %d offsets", what, rows+1)
	}
	data := payload[offBytes:]
	vals := make([]string, rows)
	prev := binary.LittleEndian.Uint64(payload)
	if prev != 0 {
		return nil, fmt.Errorf("table: columnar %s block has non-zero base offset", what)
	}
	for i := int64(0); i < rows; i++ {
		next := binary.LittleEndian.Uint64(payload[8*(i+1):])
		if next < prev || next > uint64(len(data)) {
			return nil, fmt.Errorf("table: columnar %s block has invalid offset %d at row %d", what, next, i)
		}
		vals[i] = string(data[prev:next])
		prev = next
	}
	return vals, nil
}

// ReadColumnarTable decodes one columnar file from r, which must hold
// nothing after it. Malformed input of any length returns an error,
// and memory use stays proportional to the input's size.
func ReadColumnarTable(r io.Reader) (*ColumnarTable, error) {
	br, err := newColumnarReader(r)
	if err != nil {
		return nil, err
	}
	magic := make([]byte, len(columnarMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("table: reading columnar magic: %w", err)
	}
	if string(magic) != columnarMagic {
		return nil, fmt.Errorf("table: bad columnar magic %q", magic)
	}
	kind, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if kind != 'N' && kind != 'E' {
		return nil, fmt.Errorf("table: unknown columnar table kind %q", kind)
	}
	typeName, err := readName(br)
	if err != nil {
		return nil, err
	}
	rowsU, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if rowsU > maxColumnarRows {
		return nil, fmt.Errorf("table: columnar row count %d exceeds limit (file corrupt)", rowsU)
	}
	rows := int64(rowsU)
	ncols, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if ncols > maxColumnarName {
		return nil, fmt.Errorf("table: columnar column count %d exceeds limit", ncols)
	}
	ct := &ColumnarTable{TypeName: typeName, Rows: rows}
	if kind == 'E' {
		tail, err := readIntBlock(br, rows, typeName+".tail")
		if err != nil {
			return nil, err
		}
		head, err := readIntBlock(br, rows, typeName+".head")
		if err != nil {
			return nil, err
		}
		ct.Edges = &EdgeTable{Name: typeName, Tail: tail, Head: head}
	}
	for c := uint64(0); c < ncols; c++ {
		name, err := readName(br)
		if err != nil {
			return nil, err
		}
		kb, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		pt := &PropertyTable{Name: name, Kind: ValueKind(kb)}
		switch pt.Kind {
		case KindString:
			if pt.strs, err = readStringBlock(br, rows, name); err != nil {
				return nil, err
			}
		case KindFloat:
			if pt.floats, err = readFloatBlock(br, rows, name); err != nil {
				return nil, err
			}
		case KindInt, KindDate:
			if pt.ints, err = readIntBlock(br, rows, name); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("table: columnar column %s has unknown kind %d", name, kb)
		}
		ct.Props = append(ct.Props, pt)
	}
	// Trailing garbage means the file was not produced by this writer.
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("table: columnar file has trailing bytes after last column")
	}
	return ct, nil
}

// ReadColumnarFile decodes the columnar file at path on the real
// filesystem. Fault-injection tests use ReadColumnarFileFS.
func ReadColumnarFile(path string) (*ColumnarTable, error) {
	return ReadColumnarFileFS(faultfs.OS, path)
}

// ReadColumnarFileFS decodes the columnar file at path through fsys,
// so injected open/read faults exercise the load path like real I/O
// errors would.
func ReadColumnarFileFS(fsys faultfs.FS, path string) (*ColumnarTable, error) {
	f, err := faultfs.OrOS(fsys).Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ct, err := ReadColumnarTable(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ct, nil
}

// OpenColumnar loads every *.dsc file in dir back into a Dataset — the
// read side of WriteDirColumnar — on the real filesystem.
func OpenColumnar(dir string) (*Dataset, error) {
	return OpenColumnarFS(faultfs.OS, dir)
}

// OpenColumnarFS is OpenColumnar through fsys. File kind and type come
// from the file headers, not the names.
func OpenColumnarFS(fsys faultfs.FS, dir string) (*Dataset, error) {
	fsys = faultfs.OrOS(fsys)
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, ent := range entries {
		if !ent.IsDir() && strings.HasSuffix(ent.Name(), ColumnarExt) {
			names = append(names, ent.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("table: no %s files in %s", ColumnarExt, dir)
	}
	d := NewDataset()
	for _, name := range names {
		ct, err := ReadColumnarFileFS(fsys, filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		if ct.Edges != nil {
			if _, dup := d.Edges[ct.TypeName]; dup {
				return nil, fmt.Errorf("table: duplicate edge type %q in %s", ct.TypeName, dir)
			}
			d.Edges[ct.TypeName] = ct.Edges
			d.EdgeProps[ct.TypeName] = ct.Props
		} else {
			if _, dup := d.NodeCounts[ct.TypeName]; dup {
				return nil, fmt.Errorf("table: duplicate node type %q in %s", ct.TypeName, dir)
			}
			d.NodeCounts[ct.TypeName] = ct.Rows
			d.NodeProps[ct.TypeName] = ct.Props
		}
	}
	return d, nil
}
