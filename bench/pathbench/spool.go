package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"strconv"

	"nodesentry/internal/ingest"
	"nodesentry/internal/mts"
)

// bodyEncoder renders one tick's push body and remembers where its time
// fields are, so a later pass can advance them without re-encoding.
type bodyEncoder struct {
	format wireFormat
	buf    []byte
	// offs are the byte offsets of the body's fixed-width time fields.
	offs []uint32
}

func (e *bodyEncoder) reset() {
	e.buf = e.buf[:0]
	e.offs = e.offs[:0]
}

// appendTime appends a time field (seconds, scaled to the format's unit)
// and records its offset.
func (e *bodyEncoder) appendTime(sec int64) {
	e.offs = append(e.offs, uint32(len(e.buf)))
	e.buf = strconv.AppendInt(e.buf, sec*e.format.timeScale(), 10)
}

// job appends one job-transition record: a JSONL line of ingest.Line's
// job shape, or an ingest.JobTransitionSeries exposition line.
func (e *bodyEncoder) job(node string, job, start int64) {
	if e.format == formatJSONL {
		e.buf = append(e.buf, `{"node":"`...)
		e.buf = append(e.buf, node...)
		e.buf = append(e.buf, `","job":`...)
		e.buf = strconv.AppendInt(e.buf, job, 10)
		e.buf = append(e.buf, `,"start":`...)
		e.appendTime(start)
		e.buf = append(e.buf, '}', '\n')
		return
	}
	e.buf = append(e.buf, ingest.JobTransitionSeries...)
	e.buf = append(e.buf, `{node="`...)
	e.buf = append(e.buf, node...)
	e.buf = append(e.buf, `"} `...)
	e.buf = strconv.AppendInt(e.buf, job, 10)
	e.buf = append(e.buf, ' ')
	e.appendTime(start)
	e.buf = append(e.buf, '\n')
}

// sample appends the node's metric vector at frame index t, stamped ts:
// one JSONL sample line (ingest.Line's encoding, NaN as a string), or the
// node's scrape block exactly as telemetry.FormatScrape renders it (NaN
// series omitted, as a failed collector would).
func (e *bodyEncoder) sample(f *mts.NodeFrame, t int, ts int64) {
	if e.format == formatJSONL {
		e.buf = append(e.buf, `{"node":"`...)
		e.buf = append(e.buf, f.Node...)
		e.buf = append(e.buf, `","time":`...)
		e.appendTime(ts)
		e.buf = append(e.buf, `,"values":[`...)
		for m := range f.Data {
			if m > 0 {
				e.buf = append(e.buf, ',')
			}
			// Lost samples are NaN; the generator never produces ±Inf.
			if v := f.Data[m][t]; math.IsNaN(v) {
				e.buf = append(e.buf, `"NaN"`...)
			} else {
				e.buf = strconv.AppendFloat(e.buf, v, 'g', -1, 64)
			}
		}
		e.buf = append(e.buf, ']', '}', '\n')
		return
	}
	for m, name := range f.Metrics {
		v := f.Data[m][t]
		if math.IsNaN(v) {
			continue
		}
		e.buf = append(e.buf, "# TYPE "...)
		e.buf = append(e.buf, name...)
		e.buf = append(e.buf, " gauge\n"...)
		e.buf = append(e.buf, name...)
		e.buf = append(e.buf, `{node="`...)
		e.buf = append(e.buf, f.Node...)
		e.buf = append(e.buf, `"} `...)
		e.buf = strconv.AppendFloat(e.buf, v, 'g', -1, 64)
		e.buf = append(e.buf, ' ')
		e.appendTime(ts)
		e.buf = append(e.buf, '\n')
	}
}

// encodeTick renders serve tick t of pass 0 into e: for every node, the
// transitions due by then followed by the node's sample.
func (tr *trace) encodeTick(e *bodyEncoder, t int, next []int) {
	e.reset()
	for i, node := range tr.nodes {
		if t < tr.firstTick(i) {
			continue
		}
		tr.tickEvents(i, t, next, func(job, start int64) { e.job(node, job, start) })
		e.sample(tr.serve[node], t, baseTime+int64(t)*stepSec)
	}
}

// restamp advances every time field of body by delta (in the format's
// time unit). The fields keep their width: baseTime leaves headroom for
// any pass count a run can reach, and overflow is an error, not a wrap.
func restamp(body []byte, offs []uint32, width int, delta int64) error {
	for _, o := range offs {
		field := body[o : int(o)+width]
		var v int64
		for _, c := range field {
			if c < '0' || c > '9' {
				return fmt.Errorf("restamp: byte %q in time field at offset %d", c, o)
			}
			v = v*10 + int64(c-'0')
		}
		v += delta
		for i := width - 1; i >= 0; i-- {
			field[i] = byte('0' + v%10)
			v /= 10
		}
		if v != 0 {
			return fmt.Errorf("restamp: time field at offset %d overflows %d digits", o, width)
		}
	}
	return nil
}

// spool keeps one encoded pass in an unlinked file, outside the Go heap:
// the generator reads each body into one reused buffer when it is due, so
// bodies neither count toward the daemon's resident set nor give the
// collector anything to scan.
type spool struct {
	f      *os.File
	format wireFormat
	// recs index the file: one record per tick, body bytes followed by
	// little-endian uint32 time-field offsets.
	recs []spoolRec
	// maxRec is the largest record, i.e. the read buffer a sender needs.
	maxRec int
}

type spoolRec struct {
	at      int64
	bodyLen int
	nOffs   int
}

// writeSpool encodes pass 0 of the trace into a fresh spool under dir.
func writeSpool(tr *trace, dir string) (*spool, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("spool dir: %w", err)
	}
	f, err := os.CreateTemp(dir, "pathbench-spool-*")
	if err != nil {
		return nil, fmt.Errorf("spool: %w", err)
	}
	// Unlinked at once: the open descriptor keeps the data alive and
	// nothing is left behind however the run ends.
	if err := os.Remove(f.Name()); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("spool: %w", err)
	}
	sp := &spool{f: f, format: tr.w.format}
	enc := &bodyEncoder{format: tr.w.format}
	next := make([]int, len(tr.nodes))
	var at int64
	var raw []byte
	for t := 0; t < tr.w.serveTicks; t++ {
		tr.encodeTick(enc, t, next)
		raw = append(raw[:0], enc.buf...)
		for _, o := range enc.offs {
			raw = binary.LittleEndian.AppendUint32(raw, o)
		}
		if _, err := f.WriteAt(raw, at); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("spool write: %w", err)
		}
		sp.recs = append(sp.recs, spoolRec{at: at, bodyLen: len(enc.buf), nOffs: len(enc.offs)})
		if len(raw) > sp.maxRec {
			sp.maxRec = len(raw)
		}
		at += int64(len(raw))
	}
	return sp, nil
}

// read loads tick t's record into buf (len ≥ maxRec) and returns the body
// with its time fields advanced by pass·span; offs is scratch the caller
// keeps between calls.
func (sp *spool) read(t int, pass int64, spanSec int64, buf []byte, offs []uint32) ([]byte, []uint32, error) {
	rec := sp.recs[t]
	n := rec.bodyLen + 4*rec.nOffs
	if _, err := sp.f.ReadAt(buf[:n], rec.at); err != nil {
		return nil, offs, fmt.Errorf("spool read: %w", err)
	}
	body := buf[:rec.bodyLen]
	offs = offs[:0]
	for i := 0; i < rec.nOffs; i++ {
		offs = append(offs, binary.LittleEndian.Uint32(buf[rec.bodyLen+4*i:]))
	}
	if pass != 0 {
		if err := restamp(body, offs, sp.format.timeWidth(), pass*spanSec*sp.format.timeScale()); err != nil {
			return nil, offs, err
		}
	}
	return body, offs, nil
}

func (sp *spool) close() error { return sp.f.Close() }
