package exec

import (
	"bufio"
	"bytes"
	"testing"

	"loopsched/internal/dispense"
	"loopsched/internal/sched"
	"loopsched/internal/wire"
)

// bufferEnd is one end of an in-memory duplex byte stream: reads drain
// r, writes fill w. Driven from one goroutine in strict write-then-read
// order, plain buffers suffice.
type bufferEnd struct{ r, w *bytes.Buffer }

func (e bufferEnd) Read(p []byte) (int, error)  { return e.r.Read(p) }
func (e bufferEnd) Write(p []byte) (int, error) { return e.w.Write(p) }
func (e bufferEnd) Close() error                { return nil }

// BenchmarkCompletionPath prices the layers one chunk's completion
// crosses between the worker's records and the master's ledger: encode
// and frame the request, read and decode it, convert its records into
// results (serveWire's chunkResults) and deposit them. One op is one
// 256-iteration chunk, so ns/op and allocs/op are per chunk. "run" ships
// a chunk of empty results as the one record Compute makes of it,
// "empty" as 256 single records (the coding before runs), and "data64" as
// 256 records of 64 bytes — the control, whose path run coding leaves
// alone. After each deposit the master takes a fresh result ledger for
// the next op, a fixed cost common to all three; the ledgers are made a
// batch at a time with the timer stopped.
func BenchmarkCompletionPath(b *testing.B) {
	const size = 256
	payload := make([]byte, 64)
	var empty, data []wire.Record
	for i := 0; i < size; i++ {
		empty = append(empty, wire.Record{Index: i})
		data = append(data, wire.Record{Index: i, Data: payload})
	}
	for _, c := range []struct {
		name    string
		records []wire.Record
	}{
		{"run", []wire.Record{{Index: 0, Count: size}}},
		{"empty", empty},
		{"data64", data},
	} {
		b.Run(c.name, func(b *testing.B) {
			m, err := NewMaster(sched.CSSScheme{K: size}, size, 1)
			if err != nil {
				b.Fatal(err)
			}
			var c2s, s2c bytes.Buffer
			client, err := wire.NewClient(bufferEnd{r: &s2c, w: &c2s})
			if err != nil {
				b.Fatal(err)
			}
			req := wire.Request{Worker: 0, Prefetch: true, Credits: 8, Results: c.records}
			var (
				server  *wire.Conn
				got     wire.Request
				results []ChunkResult
				spare   []*dispense.Book
			)
			cycle := func() {
				if err := client.WriteRequest(&req); err != nil {
					b.Fatal(err)
				}
				if server == nil { // the first frame flushed the preamble
					br := bufio.NewReader(bufferEnd{r: &c2s})
					if err := wire.ConsumePreamble(br); err != nil {
						b.Fatal(err)
					}
					server = wire.NewServer(bufferEnd{r: &c2s, w: &s2c}, br)
				}
				if err := server.ReadRequest(&got); err != nil {
					b.Fatal(err)
				}
				results = chunkResults(results, &got)
				if fresh, err := m.deposit(results); err != nil || fresh != size {
					b.Fatalf("deposit: %d fresh, %v", fresh, err)
				}
				if len(spare) == 0 {
					b.StopTimer()
					for range 1024 {
						spare = append(spare, dispense.NewBook(dispense.Config{Scheme: sched.CSSScheme{K: size}, Workers: 1}, size, nil))
					}
					b.StartTimer()
				}
				m.b, spare = spare[0], spare[1:]
			}
			cycle() // sizes the buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
		})
	}
}
