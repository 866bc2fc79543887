package main

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"teraphim/internal/librarian"
	"teraphim/internal/protocol"
	"teraphim/internal/simnet"
)

// This file holds the traced run's wire taps. They sit outside the program,
// at its two stream boundaries: the receptionist's side of every connection
// (a wrapped Dialer) and the librarian's side (a wrapped ConnServer handed
// to InProcessDialer.AddEndpoint). Each tap parses the frames going by and
// records one event per request/reply exchange, paired by exchange tag.

// wireEvent is one exchange seen at a tap: on the receptionist side from
// the request's write to its reply's last byte read; on the librarian side
// from the request's last byte read to its reply's first write.
type wireEvent struct {
	lib        string
	tag        uint32
	typ        protocol.MsgType // request type
	start, end time.Time
}

func (e wireEvent) dur() time.Duration { return e.end.Sub(e.start) }

// frame is a captured rank- or fetch-phase frame, replayed later through
// protocol.AppendEncode/DecodeInto.
type frame struct {
	typ     protocol.MsgType
	payload []byte
}

const maxCapturedFrames = 4096

// recorder collects wire events from every tap.
type recorder struct {
	mu        sync.Mutex
	exchanges []wireEvent
	services  []wireEvent
	frames    []frame
}

func (r *recorder) add(dst *[]wireEvent, e wireEvent) {
	r.mu.Lock()
	*dst = append(*dst, e)
	r.mu.Unlock()
}

func (r *recorder) capture(typ protocol.MsgType, payload []byte) {
	switch typ {
	case protocol.TypeRankQuery, protocol.TypeRankReply, protocol.TypeScoreDocs,
		protocol.TypeFetchDocs, protocol.TypeFetchReply:
	default:
		return
	}
	r.mu.Lock()
	if len(r.frames) < maxCapturedFrames {
		r.frames = append(r.frames, frame{typ: typ, payload: append([]byte(nil), payload...)})
	}
	r.mu.Unlock()
}

// frameParser splits a byte stream into frames. The first frame of a
// connection is always seed-framed; the caller switches tagged on when the
// HelloReply grants pipelining.
type frameParser struct {
	tagged bool
	buf    []byte
}

func (fp *frameParser) feed(p []byte, fn func(typ protocol.MsgType, tag uint32, payload []byte)) {
	fp.buf = append(fp.buf, p...)
	for {
		hl := 5
		if fp.tagged {
			hl = 9
		}
		if len(fp.buf) < hl {
			break
		}
		n := int(binary.LittleEndian.Uint32(fp.buf[:4]))
		if len(fp.buf) < hl+n {
			break
		}
		var tag uint32
		if fp.tagged {
			tag = binary.LittleEndian.Uint32(fp.buf[5:9])
		}
		fn(protocol.MsgType(fp.buf[4]), tag, fp.buf[hl:hl+n])
		fp.buf = fp.buf[hl+n:]
	}
	if len(fp.buf) == 0 {
		fp.buf = nil
	}
}

// grantsPipelining reports whether a HelloReply payload switched the
// connection to tagged framing.
func grantsPipelining(payload []byte) bool {
	var hr protocol.HelloReply
	if err := protocol.DecodeInto(&hr, payload); err != nil {
		return false
	}
	return hr.Features.Has(protocol.FeaturePipelining)
}

// tapDialer wraps the receptionist's dialer.
type tapDialer struct {
	inner simnet.Dialer
	rec   *recorder
}

func (d *tapDialer) Dial(name string) (net.Conn, error) {
	c, err := d.inner.Dial(name)
	if err != nil {
		return nil, err
	}
	return &clientTap{Conn: c, rec: d.rec, lib: name, pending: make(map[uint32]wireEvent)}, nil
}

// clientTap is the receptionist's end of one connection.
type clientTap struct {
	net.Conn
	rec *recorder
	lib string

	mu      sync.Mutex
	wr, rd  frameParser
	pending map[uint32]wireEvent
}

func (c *clientTap) Write(p []byte) (int, error) {
	now := time.Now()
	c.mu.Lock()
	c.wr.feed(p, func(typ protocol.MsgType, tag uint32, payload []byte) {
		c.pending[tag] = wireEvent{lib: c.lib, tag: tag, typ: typ, start: now}
		c.rec.capture(typ, payload)
	})
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *clientTap) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		now := time.Now()
		c.mu.Lock()
		c.rd.feed(p[:n], func(typ protocol.MsgType, tag uint32, payload []byte) {
			if typ == protocol.TypeHelloReply && !c.rd.tagged && grantsPipelining(payload) {
				c.rd.tagged, c.wr.tagged = true, true
			}
			c.rec.capture(typ, payload)
			if e, ok := c.pending[tag]; ok {
				delete(c.pending, tag)
				e.end = now
				c.rec.add(&c.rec.exchanges, e)
			}
		})
		c.mu.Unlock()
	}
	return n, err
}

// tappedServer wraps a librarian so every stream it serves is tapped.
type tappedServer struct {
	librarian.ConnServer
	rec *recorder
}

func (s *tappedServer) ServeConn(conn io.ReadWriter) error {
	return s.ConnServer.ServeConn(&serverTap{rw: conn, rec: s.rec, lib: s.Name(), read: make(map[uint32]wireEvent)})
}

// serverTap is the librarian's end of one connection.
type serverTap struct {
	rw  io.ReadWriter
	rec *recorder
	lib string

	mu     sync.Mutex
	wr, rd frameParser
	read   map[uint32]wireEvent
}

func (s *serverTap) Read(p []byte) (int, error) {
	n, err := s.rw.Read(p)
	if n > 0 {
		now := time.Now()
		s.mu.Lock()
		s.rd.feed(p[:n], func(typ protocol.MsgType, tag uint32, _ []byte) {
			s.read[tag] = wireEvent{lib: s.lib, tag: tag, typ: typ, start: now}
		})
		s.mu.Unlock()
	}
	return n, err
}

func (s *serverTap) Write(p []byte) (int, error) {
	now := time.Now()
	s.mu.Lock()
	s.wr.feed(p, func(typ protocol.MsgType, tag uint32, payload []byte) {
		if e, ok := s.read[tag]; ok {
			delete(s.read, tag)
			e.end = now
			s.rec.add(&s.rec.services, e)
		}
		if typ == protocol.TypeHelloReply && !s.wr.tagged && grantsPipelining(payload) {
			s.rd.tagged, s.wr.tagged = true, true
		}
	})
	s.mu.Unlock()
	return s.rw.Write(p)
}

func (s *serverTap) Close() error {
	if c, ok := s.rw.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// countingDialer counts the bytes crossing the receptionist's connections
// while on is set, keeping each connection's Hello handshake apart: a pool
// opens connections lazily when its open ones are busy, so whether a
// handshake lands inside a measured pass depends on timing, while the
// query traffic itself does not.
type countingDialer struct {
	inner     simnet.Dialer
	on        atomic.Bool
	bytes     atomic.Int64 // query traffic
	handshake atomic.Int64 // Hello and HelloReply frames
}

func (d *countingDialer) Dial(name string) (net.Conn, error) {
	c, err := d.inner.Dial(name)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, d: d}, nil
}

type countingConn struct {
	net.Conn
	d *countingDialer
	// The first frame each way is the handshake. Each is touched only by
	// its own direction's goroutine.
	hsR, hsW firstFrame
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.count(&c.hsR, p[:n])
	return n, err
}

// Write counts before writing: a write to a synchronous pipe returns only
// once the peer has read it, by which time the reply may already have
// completed the exchange, and bytes counted after that could land outside
// the pass they belong to.
func (c *countingConn) Write(p []byte) (int, error) {
	c.count(&c.hsW, p)
	return c.Conn.Write(p)
}

func (c *countingConn) count(hs *firstFrame, p []byte) {
	n := 0
	if !hs.done {
		n = hs.consume(p)
	}
	if c.d.on.Load() {
		c.d.handshake.Add(int64(n))
		c.d.bytes.Add(int64(len(p) - n))
	}
}

// firstFrame follows a stream until its first (seed-framed) frame has
// passed.
type firstFrame struct {
	hdr  [5]byte
	n    int // header bytes seen
	left int // payload bytes still to come
	done bool
}

// consume returns how many leading bytes of p belong to the first frame.
func (f *firstFrame) consume(p []byte) int {
	i := 0
	for !f.done && i < len(p) {
		if f.n < len(f.hdr) {
			k := copy(f.hdr[f.n:], p[i:])
			f.n += k
			i += k
			if f.n == len(f.hdr) {
				f.left = int(binary.LittleEndian.Uint32(f.hdr[:4]))
				f.done = f.left == 0
			}
			continue
		}
		k := min(f.left, len(p)-i)
		i += k
		f.left -= k
		f.done = f.left == 0
	}
	return i
}
