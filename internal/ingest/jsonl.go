package ingest

import (
	"bytes"
	"strconv"
)

// jsonlLine is one JSONL line in the form PushJSONL applies it. On the
// fast path node aliases the scanned line; values is the call's scratch
// vector, and metrics its scratch list of names.
type jsonlLine struct {
	node      []byte
	time      int64
	start     int64
	job       int64
	hasJob    bool
	metrics   []string
	values    []float64
	hasValues bool // "values" was present, possibly as []
}

// reset empties l for the next line, keeping both scratch slices.
func (l *jsonlLine) reset() {
	*l = jsonlLine{metrics: l.metrics[:0], values: l.values[:0]}
}

// setLine loads a Line that encoding/json decoded.
func (l *jsonlLine) setLine(line Line) {
	l.reset()
	l.node = []byte(line.Node)
	l.time, l.start = line.Time, line.Start
	if line.Job != nil {
		l.job, l.hasJob = *line.Job, true
	}
	l.metrics = append(l.metrics, line.Metrics...)
	l.hasValues = line.Values != nil
	for _, v := range line.Values {
		l.values = append(l.values, float64(v))
	}
}

// scan decodes raw, in one pass and without reflection, when it is a line
// the fast path can vouch for: an object whose keys are exactly node,
// time, values, metrics, job or start (any order, the last duplicate
// winning), whose strings are printable ASCII without escapes, whose
// integers are in integer grammar and whose values are numbers or quoted
// strings strconv.ParseFloat accepts — every line appendLineJSON writes
// for such names. It reports false for anything else, leaving l
// unspecified, and the caller hands the line to encoding/json: the
// library stays the definition of the format, and of every error
// message (FuzzJSONLFastPath holds the two together).
func (l *jsonlLine) scan(raw []byte) bool {
	l.reset()
	s := jsonScanner{b: raw}
	if !s.byte('{') {
		return false
	}
	for {
		key, ok := s.str()
		if !ok || !s.byte(':') {
			return false
		}
		switch string(key) {
		case "node":
			l.node, ok = s.str()
		case "time":
			l.time, ok = s.int()
		case "start":
			l.start, ok = s.int()
		case "job":
			l.job, ok = s.int()
			l.hasJob = true
		case "values":
			l.values, l.hasValues = l.values[:0], true
			ok = s.list(func() bool {
				if len(l.values) == cap(l.values) {
					// Size the scratch once, for the whole vector: a
					// body's first sample would otherwise grow it by
					// doubling, one allocation a step.
					l.values = append(make([]float64, 0, len(l.values)+s.elemsLeft()), l.values...)
				}
				v, ok := s.float()
				l.values = append(l.values, v)
				return ok
			})
		case "metrics":
			l.metrics = l.metrics[:0]
			ok = s.list(func() bool {
				m, ok := s.str()
				l.metrics = append(l.metrics, string(m))
				return ok
			})
		default:
			return false
		}
		if !ok {
			return false
		}
		if !s.byte(',') {
			return s.byte('}') && s.end()
		}
	}
}

// jsonScanner reads the fast path's subset of JSON from b, skipping JSON
// whitespace before every token.
type jsonScanner struct {
	b []byte
	i int
}

func (s *jsonScanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// byte consumes c if it is the next token.
func (s *jsonScanner) byte(c byte) bool {
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *jsonScanner) end() bool {
	s.skipSpace()
	return s.i == len(s.b)
}

// str consumes a string of printable ASCII without escapes and returns
// its contents.
func (s *jsonScanner) str() ([]byte, bool) {
	if !s.byte('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			str := s.b[s.i:j]
			s.i = j + 1
			return str, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// int consumes a number in integer grammar that fits an int64.
func (s *jsonScanner) int() (int64, bool) {
	s.skipSpace()
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	if !s.digits() {
		return 0, false
	}
	n, err := strconv.ParseInt(string(s.b[start:s.i]), 10, 64)
	return n, err == nil
}

// float consumes a sample value — a number in strict JSON grammar or a
// string — and parses it as JSONFloat.UnmarshalJSON does.
func (s *jsonScanner) float() (float64, bool) {
	s.skipSpace()
	var lit []byte
	if s.i < len(s.b) && s.b[s.i] == '"' {
		str, ok := s.str()
		if !ok {
			return 0, false
		}
		lit = str
	} else {
		start := s.i
		if !s.number() {
			return 0, false
		}
		lit = s.b[start:s.i]
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	return v, err == nil
}

// number consumes -?int(.digits)?([eE][+-]?digits)?.
func (s *jsonScanner) number() bool {
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	if !s.digits() {
		return false
	}
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if !s.someDigits() {
			return false
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if !s.someDigits() {
			return false
		}
	}
	return true
}

// digits consumes the integer part of a JSON number: 0 or [1-9][0-9]*.
func (s *jsonScanner) digits() bool {
	if s.i < len(s.b) && s.b[s.i] == '0' {
		s.i++
		return true
	}
	return s.someDigits()
}

// someDigits consumes [0-9]+.
func (s *jsonScanner) someDigits() bool {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

// elemsLeft bounds the elements left in the array being scanned: one
// more than the commas before the next ']'.
func (s *jsonScanner) elemsLeft() int {
	rest := s.b[s.i:]
	if j := bytes.IndexByte(rest, ']'); j >= 0 {
		rest = rest[:j]
	}
	return bytes.Count(rest, []byte{','}) + 1
}

// list consumes a JSON array, calling elem to consume each element.
func (s *jsonScanner) list(elem func() bool) bool {
	if !s.byte('[') {
		return false
	}
	if s.byte(']') {
		return true
	}
	for elem() {
		if !s.byte(',') {
			return s.byte(']')
		}
	}
	return false
}
