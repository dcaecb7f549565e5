package telemetry

import "loopsched/internal/trace"

// traceSubscriber rebuilds a trace.Trace from bus events, so the
// post-hoc consumers (Gantt, CoverageError, WriteCSV, the experiments
// suite) keep working unchanged when a backend routes its trace
// through the bus instead of filling it directly: a ChunkCompleted event
// — a run of Count equal chunks — becomes one trace.Event per chunk, the
// run's seconds split evenly and in order among them, so a trace stays
// one row per chunk.
type traceSubscriber struct {
	tr *trace.Trace
}

// TraceSubscriber returns a Subscriber that records ChunkCompleted
// events into tr. BeginRun stamps the trace's Scheme/Workload/Workers.
func TraceSubscriber(tr *trace.Trace) Subscriber {
	return &traceSubscriber{tr: tr}
}

func (t *traceSubscriber) BeginRun(m RunMeta) {
	t.tr.Scheme = m.Scheme
	t.tr.Workload = m.Workload
	t.tr.Workers = m.Workers
}

func (t *traceSubscriber) OnEvent(e Event) {
	if e.Kind != ChunkCompleted {
		return
	}
	n := e.Chunks()
	size, per, begin := e.Size/n, e.Seconds/float64(n), e.At-e.Seconds
	for k := range n {
		t.tr.Add(trace.Event{
			Worker: e.Worker,
			Start:  e.Start + k*size,
			Size:   size,
			Begin:  begin + float64(k)*per,
			End:    begin + float64(k+1)*per,
			ACP:    e.ACP,
		})
	}
}

func (t *traceSubscriber) Close() error { return nil }
