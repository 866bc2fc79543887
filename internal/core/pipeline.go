package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"teraphim/internal/protocol"
)

// Connections.
//
// Every exchange runs on a pipeConn: a dedicated write loop serializes
// frames and a dedicated read loop hands each reply to its waiting exchange.
// When both sides negotiate FeaturePipelining (via the Hello feature
// bitmask), frames carry a u32 exchange tag and one connection multiplexes
// up to PipelineDepth concurrent exchanges, multiplying per-replica capacity
// by the pipeline depth without opening more sockets. The paper's cost model
// charges per network contact; pipelining keeps contacts (and connections)
// flat while concurrency grows. A connection in the seed framing is the same
// pipeConn with a window of one: its single exchange needs no tag.
//
// Failure semantics: any deadline expiry — the per-call policy timer or a
// context deadline — kills the whole connection (the peer is presumed stuck;
// every pending exchange errors out and retries redial). A plain
// cancellation abandons its exchange: a tagged reply is discarded on arrival,
// so the connection stays healthy for its neighbours, while a seed-framed
// request already on the wire leaves a reply nothing can discard, and the
// connection goes with it.

// Wire feature constants re-exported so callers configuring a Receptionist
// don't need to import internal/protocol.
const (
	// FeaturePipelining negotiates tagged frames and connection multiplexing.
	FeaturePipelining = protocol.FeaturePipelining
	// FeatureBatching negotiates cross-client query batching (BatchQuery).
	FeatureBatching = protocol.FeatureBatching
	// FeatureNone requests the seed wire protocol: untagged frames, one
	// exchange per connection, no batching. Use it to pin a receptionist to
	// pre-negotiation behaviour.
	FeatureNone = protocol.FeatureNone
)

// DefaultWireFeatures is requested when Config.WireFeatures is zero.
const DefaultWireFeatures = protocol.FeaturePipelining | protocol.FeatureBatching

// DefaultPipelineDepth bounds concurrent exchanges per pipelined connection
// when Config.PipelineDepth is zero.
const DefaultPipelineDepth = 8

// maxRetainedFrame caps the frame buffer a write loop keeps between frames,
// so one oversized request does not pin its buffer for the connection's
// life.
const maxRetainedFrame = 1 << 20

// errConnDraining reports a connection that stopped accepting new
// exchanges because its replica is being removed.
var errConnDraining = errors.New("core: connection draining")

// errNoFreeSlot is the sentinel a try-only lease (a hedge) gets when the
// picked replica has no exchange slot free right now. It never surfaces to
// callers: a hedge that cannot get a slot simply does not launch.
var errNoFreeSlot = errors.New("core: no free replica slot")

// pipePending is one in-flight exchange on a pipeConn. All fields except done
// are guarded by the owning pipeConn's mu: the write loop stamps them, the
// read loop settles them, and the exchanging goroutine copies them out — any
// of which may race with a timed-out exchanger absent the lock.
type pipePending struct {
	done chan struct{} // closed exactly once when reply/err is set

	start     time.Time // enqueue time; Ship measures from here
	writtenAt time.Time
	ship      time.Duration // queue + serialization time
	wait      time.Duration // write complete -> reply delivered
	wrote     int
	read      int
	reply     protocol.Message
	err       error
	abandoned bool // cancelled before write; the write loop skips it
}

// pipeWrite is one queued frame for a pipeConn's write loop.
type pipeWrite struct {
	tag  uint32
	msg  protocol.Message
	pend *pipePending
}

// pipeConn is one connection carrying up to window concurrent exchanges. A
// dedicated write loop serializes frames and a dedicated read loop
// demultiplexes replies by tag; replies for unknown tags (abandoned
// exchanges) are discarded without disturbing the framing. A seed-framed
// connection (tagged false) has a window of one, and its read loop settles
// that one exchange.
type pipeConn struct {
	pool   *Pool
	rep    *replica
	conn   net.Conn
	tagged bool
	window int

	// leases counts the exchanges holding a window slot on this connection,
	// from lease to release. Guarded by rep.pipes.mu, not mu: the slot is
	// claimed in the same critical section that picks the connection, so a
	// window-1 connection can never be handed to two exchanges.
	leases int

	writeCh chan pipeWrite
	dead    chan struct{} // closed by fail(); loops treat it as shutdown
	// armed, on a seed-framed connection, carries one token per request
	// written: its read loop reads only while a reply is due, so an idle
	// connection is left unread, as the seed wire left it.
	armed chan struct{}

	mu       sync.Mutex
	pending  map[uint32]*pipePending
	nextTag  uint32
	err      error // first failure, set by fail()
	busy     bool  // pending > 0; drives in-use/idle gauge accounting
	draining bool  // no new exchanges; close when pending drains to zero

	// orphan marks a connection dialed for a replica removed mid-dial: it
	// serves only the exchange that dialed it, outside the replica's set.
	// Set before dialPipe returns it and read only by that caller.
	orphan bool
}

func newPipeConn(p *Pool, rep *replica, conn net.Conn, tagged bool) *pipeConn {
	window := 1
	if tagged {
		window = p.depth
	}
	pc := &pipeConn{
		pool:    p,
		rep:     rep,
		conn:    conn,
		tagged:  tagged,
		window:  window,
		writeCh: make(chan pipeWrite, window),
		dead:    make(chan struct{}),
		pending: make(map[uint32]*pipePending),
	}
	if !tagged {
		pc.armed = make(chan struct{}, 1)
	}
	p.metrics.connsIdle.Inc()
	go pc.writeLoop()
	go pc.readLoop()
	return pc
}

// syncBusyLocked moves the in-use/idle gauges when the connection crosses the
// 0↔>0 pending boundary: a connection counts as in-use while any
// exchange is in flight on it, idle otherwise. Caller holds pc.mu. After
// fail() the gauges are settled once and for all — a read-loop iteration that
// raced the failure must not flip them again off the cleared pending map.
func (pc *pipeConn) syncBusyLocked() {
	if pc.err != nil {
		return
	}
	busy := len(pc.pending) > 0
	if busy == pc.busy {
		return
	}
	pc.busy = busy
	m := pc.pool.metrics
	if busy {
		m.connsIdle.Dec()
		m.connsInUse.Inc()
	} else {
		m.connsInUse.Dec()
		m.connsIdle.Inc()
	}
}

// register adds a new pending exchange and returns its tag.
func (pc *pipeConn) register(pend *pipePending) (uint32, error) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.err != nil {
		return 0, pc.err
	}
	if pc.draining {
		return 0, errConnDraining
	}
	pc.nextTag++
	tag := pc.nextTag
	pc.pending[tag] = pend
	pc.syncBusyLocked()
	return tag, nil
}

// forget abandons an exchange after a plain cancellation (cause). A tagged
// exchange, or one whose request never reached the wire, leaves the
// connection up — a late reply for the tag is discarded by the read loop, so
// the stream never desynchronizes and the discard counts nothing against the
// dirty-connection metric. A seed-framed request already written has a reply
// on its way that no tag can discard: the connection is failed as dirty,
// the seed rule.
func (pc *pipeConn) forget(tag uint32, cause error) {
	pc.mu.Lock()
	pend, ok := pc.pending[tag]
	if !ok {
		pc.mu.Unlock()
		return
	}
	if !pc.tagged && !pend.writtenAt.IsZero() {
		pc.mu.Unlock()
		pc.fail(cause, true)
		return
	}
	pend.abandoned = true
	delete(pc.pending, tag)
	pc.syncBusyLocked()
	drained := pc.draining && len(pc.pending) == 0
	pc.mu.Unlock()
	if drained {
		pc.fail(errConnDraining, false)
	}
}

// fail terminates the connection: every pending exchange is settled with err,
// the socket is closed, and the connection leaves its replica's set. dirty
// marks the teardown as a mid-exchange stream loss for the dirty-discard
// counter. Idempotent; only the first call's error sticks.
func (pc *pipeConn) fail(err error, dirty bool) {
	pc.mu.Lock()
	if pc.err != nil {
		pc.mu.Unlock()
		return
	}
	pc.err = err
	close(pc.dead)
	for _, pend := range pc.pending {
		pend.err = err
		close(pend.done)
	}
	pc.pending = nil
	busy := pc.busy
	pc.mu.Unlock()
	m := pc.pool.metrics
	if busy {
		m.connsInUse.Dec()
	} else {
		m.connsIdle.Dec()
	}
	if dirty {
		m.dirtyDiscards.Inc()
	}
	pc.conn.Close()
	pc.rep.pipes.forget(pc)
}

// closedByPool reports whether the pool has been Closed — teardown noise from
// Close must not count as dirty discards.
func (pc *pipeConn) closedByPool() bool {
	select {
	case <-pc.pool.done:
		return true
	default:
		return false
	}
}

func (pc *pipeConn) writeLoop() {
	var buf []byte
	for {
		select {
		case w := <-pc.writeCh:
			frame, err := protocol.AppendFrame(buf[:0], w.tag, pc.tagged, w.msg)
			if err != nil {
				pc.fail(fmt.Errorf("core: write: %w", err), !pc.closedByPool())
				return
			}
			if cap(frame) <= maxRetainedFrame {
				buf = frame
			}
			// Stamp before the write hits the wire: the reply races the
			// stamping otherwise, and a zero writtenAt would turn the
			// measured wait into garbage that poisons the hedge-delay
			// quantile, while a zero wrote would drop the request from the
			// trace's byte count. Ship is therefore the queue-to-wire delay
			// and Wait the write plus round trip — together the exchange's
			// true total. The skip check shares the stamp's critical
			// section: forget either sees the stamp or leaves a mark this
			// check sees, so a seed-framed request is never written after
			// its exchange was abandoned.
			began := time.Now()
			pc.mu.Lock()
			skip := w.pend.abandoned || pc.err != nil
			if !skip {
				w.pend.writtenAt = began
				w.pend.ship = began.Sub(w.pend.start)
				w.pend.wrote = len(frame)
			}
			pc.mu.Unlock()
			if skip {
				continue
			}
			if _, err := pc.conn.Write(frame); err != nil {
				pc.fail(fmt.Errorf("core: write: protocol: write %v: %w", w.msg.Type(), err), !pc.closedByPool())
				return
			}
			pc.pool.metrics.wireBytesOut.Add(uint64(len(frame)))
			if pc.armed != nil {
				select {
				case pc.armed <- struct{}{}:
				case <-pc.dead:
					return
				}
			}
		case <-pc.dead:
			return
		}
	}
}

func (pc *pipeConn) readLoop() {
	rd := &protocol.Reader{R: pc.conn, Tagged: pc.tagged}
	for {
		if pc.armed != nil {
			select {
			case <-pc.armed:
			case <-pc.dead:
				return
			}
		}
		msg, tag, n, err := rd.Read()
		if err != nil {
			pc.mu.Lock()
			busy := len(pc.pending) > 0
			pc.mu.Unlock()
			pc.fail(fmt.Errorf("core: read: %w", err), busy && !pc.closedByPool())
			return
		}
		m := pc.pool.metrics
		m.wireBytesIn.Add(uint64(n))
		m.wireRoundTrips.Inc()
		now := time.Now()
		pc.mu.Lock()
		if !pc.tagged {
			// A seed-framed reply answers the connection's one exchange:
			// the most recently registered.
			tag = pc.nextTag
		}
		if pend, ok := pc.pending[tag]; ok {
			delete(pc.pending, tag)
			pend.read = n
			pend.reply = msg
			if pend.writtenAt.IsZero() {
				// Reply landed before the request's write was even queued
				// to the wire (only a misbehaving peer can do this); charge
				// the whole elapsed time as wait.
				pend.wait = now.Sub(pend.start)
			} else {
				pend.wait = now.Sub(pend.writtenAt)
			}
			close(pend.done)
		}
		// Unknown or duplicate tags (late replies for abandoned exchanges)
		// fall through: the frame was fully consumed, framing stays intact.
		pc.syncBusyLocked()
		drained := pc.draining && len(pc.pending) == 0
		pc.mu.Unlock()
		if drained {
			pc.fail(errConnDraining, false)
			return
		}
	}
}

// exchange runs one request/reply on the connection under the caller's
// deadline policy: a policy-timer or context-deadline expiry kills the whole
// connection (the peer is presumed stuck and retries must redial), while a
// plain cancellation abandons only this exchange (see forget).
func (pc *pipeConn) exchange(ctx context.Context, timeout time.Duration, name string, phase Phase, req protocol.Message) (Call, protocol.Message, error) {
	call := Call{Librarian: name, Replica: pc.rep.endpoint, Phase: phase, ReqType: req.Type()}
	pend := &pipePending{done: make(chan struct{}), start: time.Now()}
	tag, err := pc.register(pend)
	if err != nil {
		return call, nil, err
	}

	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}

	select {
	case pc.writeCh <- pipeWrite{tag: tag, msg: req, pend: pend}:
	case <-pc.dead:
		pc.mu.Lock()
		err := pc.err
		pc.mu.Unlock()
		return call, nil, err
	case <-ctx.Done():
		pc.forget(tag, ctx.Err())
		return call, nil, ctx.Err()
	case <-timer:
		pc.fail(os.ErrDeadlineExceeded, true)
		return call, nil, os.ErrDeadlineExceeded
	}

	select {
	case <-pend.done:
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			// A deadline expiry means the peer may be wedged mid-reply: kill
			// the connection so its neighbours don't inherit a stuck peer.
			pc.fail(os.ErrDeadlineExceeded, true)
			return call, nil, os.ErrDeadlineExceeded
		}
		pc.forget(tag, ctx.Err())
		return call, nil, ctx.Err()
	case <-timer:
		pc.fail(os.ErrDeadlineExceeded, true)
		return call, nil, os.ErrDeadlineExceeded
	}

	pc.mu.Lock()
	reply, rerr := pend.reply, pend.err
	call.ReqBytes, call.RespBytes = pend.wrote, pend.read
	call.Ship, call.Wait = pend.ship, pend.wait
	pc.mu.Unlock()
	if rerr != nil {
		return call, nil, rerr
	}
	reply, err = classifyReply(&call, reply)
	return call, reply, err
}

// pipeSet is a replica's collection of connections.
type pipeSet struct {
	mu       sync.Mutex
	cond     *sync.Cond // signalled when conns/creating change or a window-1 slot frees
	conns    []*pipeConn
	creating int
	draining bool
}

func (s *pipeSet) init() { s.cond = sync.NewCond(&s.mu) }

// forget removes pc from the set (called by pipeConn.fail).
func (s *pipeSet) forget(pc *pipeConn) {
	s.mu.Lock()
	for i, c := range s.conns {
		if c == pc {
			s.conns = append(s.conns[:i], s.conns[i+1:]...)
			break
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// closeAll tears down every connection immediately (pool Close).
func (s *pipeSet) closeAll() {
	s.mu.Lock()
	conns := append([]*pipeConn(nil), s.conns...)
	s.mu.Unlock()
	for _, pc := range conns {
		pc.fail(net.ErrClosed, false)
	}
}

// drain stops new exchanges and lets in-flight ones finish; idle connections
// close immediately (replica removal).
func (s *pipeSet) drain() {
	s.mu.Lock()
	s.draining = true
	conns := append([]*pipeConn(nil), s.conns...)
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, pc := range conns {
		pc.mu.Lock()
		pc.draining = true
		idle := len(pc.pending) == 0 && pc.err == nil
		pc.mu.Unlock()
		if idle {
			pc.fail(errConnDraining, false)
		}
	}
}

// lease claims one exchange slot on rep, the pool's one lease unit: a tag
// from the replica's semaphore (capacity MaxConnsPerLibrarian ×
// PipelineDepth), then a window slot on a connection. The connection is the
// least-loaded live one with headroom; failing that, a new one while the
// replica is under MaxConnsPerLibrarian, returned as nil for the caller to
// dialPipe; failing that, the least-loaded tagged connection, shared beyond
// its depth — the tag semaphore already bounds total concurrency, so sharing
// at overload cannot run away. A seed-framed connection is never shared:
// with every one busy at the cap, the exchange waits for a slot to free.
// Both waits abort on ctx or Close and are observed together into the
// acquire-wait histogram; a try-only lease (a hedge) waits for neither and
// gets errNoFreeSlot instead. Every successful lease must be released.
func (p *Pool) lease(ctx context.Context, rep *replica, tryOnly bool) (*pipeConn, error) {
	start := time.Now()
	if tryOnly {
		select {
		case rep.tags <- struct{}{}:
		default:
			return nil, errNoFreeSlot
		}
	} else {
		select {
		case rep.tags <- struct{}{}:
		case <-p.done:
			return nil, ErrPoolClosed
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	pc, err := p.claimSlot(ctx, rep, tryOnly)
	if err != nil {
		<-rep.tags
		return nil, err
	}
	if !tryOnly {
		p.metrics.acquireWait.ObserveDuration(time.Since(start))
	}
	rep.inflight.Add(1)
	return pc, nil
}

// claimSlot is lease's window-slot step. The pick and the claim share one
// critical section of the set's lock, which is what keeps a window-1
// connection to one exchange at a time.
func (p *Pool) claimSlot(ctx context.Context, rep *replica, tryOnly bool) (*pipeConn, error) {
	s := &rep.pipes
	s.mu.Lock()
	defer s.mu.Unlock()
	var stop func() bool
	for {
		select {
		case <-p.done:
			return nil, ErrPoolClosed
		default:
		}
		if s.draining {
			return nil, errConnDraining
		}
		var free, shared *pipeConn
		for _, pc := range s.conns {
			pc.mu.Lock()
			dead := pc.err != nil
			pc.mu.Unlock()
			if dead {
				continue
			}
			if pc.leases < pc.window && (free == nil || pc.leases < free.leases) {
				free = pc
			}
			if pc.tagged && (shared == nil || pc.leases < shared.leases) {
				shared = pc
			}
		}
		if free == nil && len(s.conns)+s.creating < p.max {
			s.creating++
			return nil, nil
		}
		if free == nil {
			free = shared
		}
		if free != nil {
			free.leases++
			return free, nil
		}
		// Every live connection is a busy seed-framed one, or the cap is
		// held by dead connections not yet forgotten and dials in flight;
		// each of these broadcasts when it changes.
		if tryOnly {
			return nil, errNoFreeSlot
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if stop == nil && ctx.Done() != nil {
			stop = context.AfterFunc(ctx, func() {
				s.mu.Lock()
				s.cond.Broadcast()
				s.mu.Unlock()
			})
			defer stop()
		}
		s.cond.Wait()
	}
}

// release returns a lease. pc is the connection the exchange ran on, nil
// when the dial for it failed.
func (p *Pool) release(rep *replica, pc *pipeConn) {
	if pc != nil {
		s := &rep.pipes
		s.mu.Lock()
		pc.leases--
		if !pc.tagged {
			s.cond.Broadcast()
		}
		s.mu.Unlock()
	}
	rep.inflight.Add(-1)
	<-rep.tags
}

// pipeHandshake reports what the feature negotiation on a fresh connection
// produced, so a caller whose own request was the Hello can use the
// handshake's reply directly instead of paying a second round trip.
type pipeHandshake struct {
	reply  protocol.Message
	tagged bool // the peer granted FeaturePipelining
	wrote  int
	read   int
	ship   time.Duration
	wait   time.Duration
}

// dialPipe fills a lease that reserved a new connection: it dials rep and
// adds the connection to the replica's set holding the caller's slot. hs is
// the feature handshake's outcome, nil when none ran.
func (p *Pool) dialPipe(ctx context.Context, rep *replica, timeout time.Duration) (*pipeConn, *pipeHandshake, error) {
	conn, hs, err := p.dial(ctx, rep, timeout)
	var pc *pipeConn
	if err == nil {
		pc = newPipeConn(p, rep, conn, hs != nil && hs.tagged)
		pc.leases = 1
	}
	s := &rep.pipes
	s.mu.Lock()
	s.creating--
	s.cond.Broadcast()
	if err != nil {
		s.mu.Unlock()
		return nil, nil, err
	}
	closed := false
	select {
	case <-p.done:
		closed = true
	default:
	}
	switch {
	case closed:
		// Close has swept (or is sweeping) the set under this lock; a
		// connection joining now would outlive the pool.
		s.mu.Unlock()
		pc.fail(net.ErrClosed, false)
		return nil, nil, ErrPoolClosed
	case s.draining:
		// The replica was removed while this dial was in flight. The
		// exchange that dialed leased its slot before the removal, so, like
		// any exchange in flight at removal, it completes: on this
		// connection alone, which never joins the set and is closed when
		// the attempt ends. Failing it instead would starve every exchange
		// of a replica set churning faster than one handshake.
		pc.orphan = true
	default:
		s.conns = append(s.conns, pc)
	}
	s.mu.Unlock()
	return pc, hs, nil
}

// dial connects to rep. Unless the pool asks for no pipelining or the
// replica already declined it, it first negotiates features with a Hello in
// seed framing; a peer that declines marks the replica seed-only, so its
// later dials skip the handshake and go straight to seed framing, like the
// seed wire itself.
func (p *Pool) dial(ctx context.Context, rep *replica, timeout time.Duration) (net.Conn, *pipeHandshake, error) {
	conn, err := p.dialer.Dial(rep.endpoint)
	if err != nil {
		return nil, nil, fmt.Errorf("core: dial %s: %w", rep.endpoint, err)
	}
	if !p.features.Has(protocol.FeaturePipelining) || rep.seedOnly.Load() {
		return conn, nil, nil
	}

	// The handshake honours the same effective deadline an exchange would:
	// the earlier of the per-call timeout and the context's own deadline,
	// with cancellation snapping the deadline into the past.
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	if !deadline.IsZero() {
		_ = conn.SetDeadline(deadline)
	}
	if ctx.Done() != nil {
		snapped := make(chan struct{})
		stop := context.AfterFunc(ctx, func() {
			defer close(snapped)
			_ = conn.SetDeadline(time.Now().Add(-time.Second))
		})
		defer func() {
			if !stop() {
				// The snap ran (or is running) while the handshake completed:
				// wait for it and undo it, or the freshly negotiated
				// connection would start life with a poisoned deadline.
				<-snapped
				_ = conn.SetDeadline(time.Time{})
			}
		}()
	}

	start := time.Now()
	wrote, err := protocol.WriteMessage(conn, &protocol.Hello{Features: p.features})
	if err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("core: handshake %s: %w", rep.endpoint, err)
	}
	written := time.Now()
	p.metrics.wireBytesOut.Add(uint64(wrote))
	reply, read, err := protocol.ReadMessage(conn)
	if err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("core: handshake %s: %w", rep.endpoint, err)
	}
	_ = conn.SetDeadline(time.Time{})
	p.metrics.wireBytesIn.Add(uint64(read))
	p.metrics.wireRoundTrips.Inc()
	hr, ok := reply.(*protocol.HelloReply)
	if !ok {
		conn.Close()
		return nil, nil, fmt.Errorf("core: handshake %s: unexpected %v reply", rep.endpoint, reply.Type())
	}
	if extra := hr.Features &^ p.features; extra != 0 {
		conn.Close()
		return nil, nil, &protocol.FeatureMismatchError{Requested: p.features, Granted: hr.Features}
	}
	tagged := hr.Features.Has(protocol.FeaturePipelining)
	if !tagged {
		rep.seedOnly.Store(true)
	}
	return conn, &pipeHandshake{
		reply:  reply,
		tagged: tagged,
		wrote:  wrote,
		read:   read,
		ship:   written.Sub(start),
		wait:   time.Since(written),
	}, nil
}

// hsCall converts a handshake's measurements into the Call record for a
// setup Hello that was answered by the handshake itself.
func hsCall(name, endpoint string, phase Phase, req protocol.Message, hs *pipeHandshake) Call {
	return Call{
		Librarian: name, Replica: endpoint, Phase: phase, ReqType: req.Type(),
		ReqBytes: hs.wrote, RespBytes: hs.read, Ship: hs.ship, Wait: hs.wait,
	}
}

// attemptOnce is one exchange against one replica of the named librarian:
// pick (steering around avoid), lease, dial when the lease reserved a new
// connection, exchange, report the outcome to the router's passive health
// tracking, release. See attempt for onLease and the returned endpoint.
func (e *exec) attemptOnce(ctx context.Context, name string, phase Phase, req protocol.Message, avoid string, tryOnly bool, onLease func(endpoint string)) ([]Call, protocol.Message, string, error) {
	p := e.pool
	rt, ok := p.routers[name]
	if !ok {
		return nil, nil, "", fmt.Errorf("core: unknown librarian %q", name)
	}
	rep := rt.pick(avoid)
	if rep == nil {
		return nil, nil, "", fmt.Errorf("core: librarian %q has no replicas", name)
	}
	endpoint := rep.endpoint
	pc, err := p.lease(ctx, rep, tryOnly)
	if err != nil {
		return nil, nil, "", err
	}
	defer func() { p.release(rep, pc) }()
	if onLease != nil {
		onLease(endpoint)
	}

	if pc == nil {
		var hs *pipeHandshake
		pc, hs, err = p.dialPipe(ctx, rep, e.policy.timeout)
		if err != nil {
			// Health accounting never counts a cancelled attempt against the
			// replica: a hedge loser or an abandoned query says nothing about
			// the endpoint. Pool shutdown says nothing either.
			if ctx.Err() == nil && !errors.Is(err, ErrPoolClosed) {
				rt.reportFailure(rep)
			}
			return nil, nil, endpoint, err
		}
		if pc.orphan {
			defer pc.fail(errConnDraining, false)
		}
		// The handshake Hello doubles as the exchange when the caller's own
		// request is a Hello, so setup costs one round trip per connection,
		// exactly like the seed.
		if _, isHello := req.(*protocol.Hello); isHello && hs != nil {
			call := hsCall(name, endpoint, phase, req, hs)
			rt.reportSuccess(rep, call.Ship+call.Wait)
			return []Call{call}, hs.reply, endpoint, nil
		}
	}

	call, reply, err := pc.exchange(ctx, e.policy.timeout, name, phase, req)
	if err != nil {
		var remote *protocol.RemoteError
		if errors.As(err, &remote) {
			// The peer answered; the transport is healthy and its latency is
			// a real observation.
			rt.reportSuccess(rep, call.Ship+call.Wait)
		} else if ctx.Err() == nil && !errors.Is(err, ErrPoolClosed) && !errors.Is(err, errConnDraining) {
			rt.reportFailure(rep)
		}
		return []Call{call}, nil, endpoint, err
	}
	rt.reportSuccess(rep, call.Ship+call.Wait)
	return []Call{call}, reply, endpoint, nil
}
