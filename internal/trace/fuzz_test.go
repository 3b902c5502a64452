package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"testing"

	"repro/internal/program"
)

// Fuzz targets: the codecs must never panic on corrupt input, and anything
// they accept must re-serialize cleanly. Run with `go test -fuzz=FuzzReadBinary`
// for continuous fuzzing; the seed corpus below runs under plain `go test`.

func FuzzReadBinary(f *testing.F) {
	// Seeds: a valid trace, a truncated one, junk.
	var buf bytes.Buffer
	tr := &Trace{Events: []Event{{Proc: 1, Extent: 100, Repeat: 2}, {Proc: 300}}}
	if err := tr.WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-2])
	f.Add([]byte("RTR1"))
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	// Out-of-int32-range varints (the silent-truncation regression) and
	// lying headers over tiny bodies.
	f.Add(rawTrace(1, uint64(math.MaxInt32)+1, 0, 0))
	f.Add(rawTrace(1, 7, uint64(math.MaxInt32)+1, 0))
	f.Add(rawTrace(1, 7, 0, math.MaxUint64))
	f.Add(rawTrace(maxDeclaredEvents, 1, 0, 0))
	f.Add(rawTrace(streamSentinel, 3, 10, 2))
	// Inputs longer than the reader's buffer, failing inside it or across
	// its end, and a counted header declaring fewer events than its long
	// body holds.
	for _, c := range boundaryTraces() {
		f.Add(c.data)
	}
	long, _ := padTrace(traceHeader(100), 3000)
	f.Add(long)

	f.Fuzz(func(t *testing.T, data []byte) {
		// The buffered decoder must give exactly what an event-by-event
		// Next loop gives: the same events, or the same error text.
		want, werr := readByNext(data)
		got, err := ReadBinary(bytes.NewReader(data))
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("ReadBinary error %v, Next loop %v", err, werr)
		}
		if err == nil && !slices.Equal(got.Events, want.Events) {
			t.Fatalf("ReadBinary decoded %d events, Next loop %d, or they differ", got.Len(), want.Len())
		}
		// So must ReadChunk, in small chunks and in one chunk larger than
		// any declared count the input can reach.
		for _, size := range []int{1 + len(data)%7, len(data) + 1} {
			chunked, cerr := readByChunks(data, size)
			if fmt.Sprint(cerr) != fmt.Sprint(werr) {
				t.Fatalf("ReadChunk(%d) error %v, Next loop %v", size, cerr, werr)
			}
			if cerr == nil && !slices.Equal(chunked, want.Events) {
				t.Fatalf("ReadChunk(%d) decoded %d events, Next loop %d, or they differ", size, len(chunked), want.Len())
			}
		}
		if err != nil {
			return
		}
		// Whatever the decoder accepts must be in range: decoding must
		// never narrow a varint into a negative int32.
		for i, e := range got.Events {
			if e.Proc < 0 || e.Extent < 0 || e.Repeat < 0 {
				t.Fatalf("event %d decoded with negative field: %+v", i, e)
			}
		}
		// Whatever parses must round trip.
		var out bytes.Buffer
		if err := got.WriteBinary(&out); err != nil {
			t.Fatalf("re-serialize failed: %v", err)
		}
		back, err := ReadBinary(&out)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if back.Len() != got.Len() {
			t.Fatalf("round trip changed length %d -> %d", got.Len(), back.Len())
		}
	})
}

func FuzzReadText(f *testing.F) {
	prog := program.MustNew([]program.Procedure{
		{Name: "a", Size: 100},
		{Name: "b", Size: 200},
	})
	f.Add("a\nb 10\na 5 2\n")
	f.Add("# comment\n\n")
	f.Add("a 99999999999999999999\n")
	f.Add("unknown\n")
	f.Add("a 1 2 3 4\n")

	f.Fuzz(func(t *testing.T, data string) {
		got, err := ReadText(bytes.NewReader([]byte(data)), prog)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := got.WriteText(&out, prog); err != nil {
			t.Fatalf("re-serialize failed: %v", err)
		}
		if _, err := ReadText(&out, prog); err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
	})
}

// readByNext decodes data one Next call at a time: the oracle for the
// buffered decoder behind ReadBinary and ReadChunk.
func readByNext(data []byte) (*Trace, error) {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	t := &Trace{}
	for {
		e, err := r.Next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		t.Append(e)
	}
}

// readByChunks decodes data through ReadChunk calls of size events.
func readByChunks(data []byte, size int) ([]Event, error) {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var out []Event
	chunk := make([]Event, size)
	for {
		n, err := r.ReadChunk(chunk)
		out = append(out, chunk[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// boundaryCase is a binary trace longer than the reader's 4096-byte
// buffer, the number of valid events before its bad one, and the error
// decoding it must give.
type boundaryCase struct {
	name, want string
	events     int
	data       []byte
}

// padTrace appends valid events to a binary trace until it is exactly
// at bytes long, and returns it with the number of events appended:
// 3-byte events while 6 or more bytes are left, then one event of the 3
// to 5 left, its extent sized to fit.
func padTrace(out []byte, at int) ([]byte, int) {
	events := 0
	for gap := at - len(out); gap > 0; gap = at - len(out) {
		ext := uint64(1)
		switch gap {
		case 4:
			ext = 1 << 7
		case 5:
			ext = 1 << 14
		}
		out = binary.AppendUvarint(out, 1)
		out = binary.AppendUvarint(out, ext)
		out = binary.AppendUvarint(out, 0)
		events++
	}
	return out, events
}

// traceHeader is the magic and declared event count of a binary trace.
func traceHeader(count uint64) []byte {
	return binary.AppendUvarint([]byte(binaryMagic), count)
}

// boundaryTraces builds traces longer than the reader's 4096-byte buffer
// with one bad field, either well inside the first buffer or straddling
// its end: an over-long varint, and an extent above math.MaxInt32, each
// followed by valid events. A third trace declares more events than its
// body holds and carries a valid six-byte encoding of a small extent, which
// the in-buffer decoder leaves to Next.
func boundaryTraces() []boundaryCase {
	const bufSize = 4096
	overflow := func(where string, at, run int) boundaryCase {
		data, n := padTrace(traceHeader(streamSentinel), at)
		data = append(data, bytes.Repeat([]byte{0xff}, run)...)
		data, _ = padTrace(data, len(data)+300)
		return boundaryCase{"overlong varint " + where,
			fmt.Sprintf("trace: event %d: reading proc: binary: varint overflows a 64-bit integer", n), n, data}
	}
	bigExtent := func(where string, at int) boundaryCase {
		data, n := padTrace(traceHeader(streamSentinel), at-1)
		data = binary.AppendUvarint(data, 1)
		data = binary.AppendUvarint(data, math.MaxInt32+1)
		data = binary.AppendUvarint(data, 0)
		data, _ = padTrace(data, len(data)+300)
		return boundaryCase{"extent out of range " + where,
			fmt.Sprintf("trace: event %d: extent %d out of range", n, uint64(math.MaxInt32)+1), n, data}
	}
	short, n1 := padTrace(traceHeader(2000), 1000)
	short = append(short, 1, 0x81, 0x80, 0x80, 0x80, 0x80, 0x00, 0) // extent 1 in six bytes
	short, n2 := padTrace(short, bufSize+100)
	n := n1 + 1 + n2
	return []boundaryCase{
		overflow("inside the buffer", bufSize/2, 11),
		// 16 bytes are buffered when the run starts, so the in-buffer
		// decoder starts the event and Next finishes it across the end.
		overflow("across the buffer end", bufSize-16, 20),
		bigExtent("inside the buffer", bufSize/2),
		bigExtent("across the buffer end", bufSize-3),
		{"short counted body", fmt.Sprintf("trace: event %d: reading proc: EOF", n), n, short},
	}
}
