package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"time"
)

// headroom is the space a sender keeps in front of the body so request
// line, headers and body leave in one write.
const headroom = 256

// sender is the load generator's side of the wire: one keep-alive TCP
// connection speaking just enough HTTP/1.1 to POST a body and read the
// status back. It is deliberately not net/http's client — that would put
// the client's goroutines, allocations and CPU inside the process being
// measured — and it allocates nothing per request.
type sender struct {
	conn  net.Conn
	br    *bufio.Reader
	head  []byte
	spool *spool
	span  int64
	buf   []byte
	offs  []uint32
}

// newSender dials the intake and sizes the reused buffer for the spool.
func newSender(addr string, sp *spool, spanSec int64) (*sender, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial intake: %w", err)
	}
	s := &sender{
		conn:  conn,
		br:    bufio.NewReaderSize(conn, 4096),
		spool: sp,
		span:  spanSec,
		buf:   make([]byte, headroom+sp.maxRec),
	}
	s.head = []byte("POST /push HTTP/1.1\r\nHost: " + addr + "\r\nContent-Type: " +
		sp.format.contentType() + "\r\nContent-Length: ")
	return s, nil
}

func (s *sender) close() error { return s.conn.Close() }

// send posts tick t of the given pass and returns the response status.
func (s *sender) send(t int, pass int64) (int, error) {
	body, offs, err := s.spool.read(t, pass, s.span, s.buf[headroom:], s.offs)
	s.offs = offs
	if err != nil {
		return 0, err
	}
	var lenBuf [24]byte
	tail := append(strconv.AppendInt(lenBuf[:0], int64(len(body)), 10), "\r\n\r\n"...)
	start := headroom - len(s.head) - len(tail)
	if start < 0 {
		return 0, fmt.Errorf("sender: request head exceeds %d bytes", headroom)
	}
	copy(s.buf[start:], s.head)
	copy(s.buf[start+len(s.head):], tail)
	if _, err := s.conn.Write(s.buf[start : headroom+len(body)]); err != nil {
		return 0, fmt.Errorf("push write: %w", err)
	}
	return s.readResponse()
}

// readResponse consumes one response with a Content-Length body (what
// net/http writes for the intake's short replies) and returns its status.
func (s *sender) readResponse() (int, error) {
	line, err := s.br.ReadSlice('\n')
	if err != nil {
		return 0, fmt.Errorf("push response: %w", err)
	}
	// "HTTP/1.1 202 Accepted"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, fmt.Errorf("push response: bad status line %q", line)
	}
	status := 0
	for _, c := range line[9:12] {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("push response: bad status line %q", line)
		}
		status = status*10 + int(c-'0')
	}
	length := -1
	for {
		line, err = s.br.ReadSlice('\n')
		if err != nil {
			return 0, fmt.Errorf("push response headers: %w", err)
		}
		if len(line) <= 2 {
			break
		}
		const key = "content-length:"
		if len(line) > len(key) && bytes.EqualFold(line[:len(key)], []byte(key)) {
			length = 0
			for _, c := range bytes.TrimSpace(line[len(key):]) {
				if c < '0' || c > '9' {
					return 0, fmt.Errorf("push response: bad content length %q", line)
				}
				length = length*10 + int(c-'0')
			}
		}
	}
	if length < 0 {
		return 0, fmt.Errorf("push response: no Content-Length (status %d)", status)
	}
	if _, err := s.br.Discard(length); err != nil {
		return 0, fmt.Errorf("push response body: %w", err)
	}
	return status, nil
}

// pacer schedules an open-loop phase: send i is due at start + i/rate,
// whether or not earlier sends have finished.
type pacer struct {
	start    time.Time
	interval time.Duration
}

func newPacer(start time.Time, ticksPerSec float64) pacer {
	return pacer{start: start, interval: time.Duration(float64(time.Second) / ticksPerSec)}
}

// due returns when send i should leave.
func (p pacer) due(i int) time.Time { return p.start.Add(time.Duration(i) * p.interval) }

// wait sleeps until send i is due and returns how late the generator is
// (0 when it woke on time; positive when the previous send, or the timer,
// overran the slot).
func (p pacer) wait(i int, now func() time.Time, sleep func(time.Duration)) time.Duration {
	d := p.due(i)
	if left := d.Sub(now()); left > 0 {
		sleep(left)
	}
	late := now().Sub(d)
	if late < 0 {
		late = 0
	}
	return late
}
