package ingest

// Tee fans every sink call out to each of the given sinks, in order. Nil
// entries are skipped, so callers can write Tee(mon, maybeNil) without
// branching. The values slice is shared across sinks on the hot path,
// which Sink.Ingest's ownership rule allows: a sink that keeps it copies
// it.
func Tee(sinks ...Sink) Sink {
	kept := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	if len(kept) == 1 {
		return kept[0]
	}
	return teeSink(kept)
}

type teeSink []Sink

func (t teeSink) RegisterNode(node string, metrics []string) {
	for _, s := range t {
		s.RegisterNode(node, metrics)
	}
}

func (t teeSink) ObserveJob(node string, job int64, start int64) {
	for _, s := range t {
		s.ObserveJob(node, job, start)
	}
}

// Ingest fans one sample out to every sink.
//
//perf:hot
func (t teeSink) Ingest(node string, ts int64, values []float64) {
	for _, s := range t {
		s.Ingest(node, ts, values)
	}
}
