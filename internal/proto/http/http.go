// Package http implements the HTTP server module of Figure 1: GET
// parsing, document retrieval through the FS module's file-access
// interface, CGI dispatch (the runaway-script vector of §4.4.3), and a
// paced streaming mode used by the QoS experiments (§4.4.2).
package http

import (
	"bytes"
	"strconv"
	"unicode"

	"repro/internal/domain"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/lib"
	"repro/internal/module"
	"repro/internal/msg"
	"repro/internal/sim"
)

// Attribute keys the HTTP module understands.
const (
	// AttrStream (bool) marks paths whose responses are produced by a
	// paced streaming thread instead of a single document.
	AttrStream = "http.stream"
	// AttrStreamRate (int, bytes/second) sets the stream's target rate.
	AttrStreamRate = "http.streamRate"
	// AttrCGISpin (sim.Cycles) sets the per-iteration burn of the
	// emulated runaway CGI script.
	AttrCGISpin = "http.cgiSpin"
)

// StreamChunk is the streaming mode's write size.
const StreamChunk = 10 * 1024

// Module is the HTTP server module.
type Module struct {
	tcpName string

	// Requests, CGIRequests, NotFound, StreamsStarted count server
	// activity for the experiments.
	Requests       uint64
	CGIRequests    uint64
	NotFound       uint64
	StreamsStarted uint64

	// AuthFailures counts rejected /login attempts. The emulated login
	// endpoint refuses every scripted credential, so the counter is the
	// server-visible signature of a brute-force attack: legitimate
	// traffic barely moves it, credential stuffing races it upward.
	AuthFailures uint64
}

// New returns an HTTP module whose open walk continues at tcpName.
func New(tcpName string) *Module {
	return &Module{tcpName: tcpName}
}

// Init implements module.Module.
func (m *Module) Init(*module.InitCtx) error { return nil }

// CreateStage implements module.Module: bind to the FS stage above.
func (m *Module) CreateStage(pb module.PathBuilder, attrs lib.Attrs) (module.Stage, string, error) {
	st := &stage{
		mod:    m,
		k:      pb.Kernel(),
		h:      pb.Handle(),
		stream: attrs.Bool(AttrStream),
	}
	if r, ok := attrs.Int(AttrStreamRate); ok {
		st.streamRate = r
	}
	if c, ok := attrs[AttrCGISpin].(sim.Cycles); ok {
		st.cgiSpin = c
	}
	if stages := pb.Stages(); len(stages) > 0 {
		if reader, ok := stages[len(stages)-1].(fs.Reader); ok {
			st.fs = reader
			st.fsDomain = pb.NodeAt(len(stages) - 1).Domain().ID()
		}
	}
	return st, m.tcpName, nil
}

// Demux implements module.Module: HTTP is above TCP and never a demux
// entry in this configuration.
func (m *Module) Demux(*msg.Msg) module.Verdict {
	return module.Reject("http: not a demux module")
}

type stage struct {
	mod *Module
	k   *kernel.Kernel
	h   module.StageHandle

	fs       fs.Reader
	fsDomain domain.ID

	stream     bool
	streamRate int
	cgiSpin    sim.Cycles

	req     []byte
	handled bool
}

// Deliver implements module.Stage: assemble the request, then serve it.
func (s *stage) Deliver(ctx *kernel.Ctx, dir module.Direction, mm *msg.Msg) (bool, error) {
	if dir == module.Down {
		return true, nil
	}
	model := s.k.Model()
	ctx.Use(sim.Cycles(mm.Len()) * model.PerByte)
	if s.handled {
		return false, nil
	}
	s.req = append(s.req, mm.Bytes()...)
	if !bytes.Contains(s.req, []byte("\r\n\r\n")) {
		return false, nil // wait for the rest of the request
	}
	s.handled = true
	ctx.Use(model.HTTPParse + s.k.AccountingTax())
	s.mod.Requests++

	target, ok := parseRequestLine(s.req)
	if !ok {
		return false, s.respond(ctx, "400 Bad Request", []byte("bad request"))
	}
	switch {
	case bytes.HasPrefix(target, []byte("/cgi-bin/")):
		s.mod.CGIRequests++
		s.startCGI(ctx)
		return false, nil
	case s.stream || bytes.HasPrefix(target, []byte("/stream")):
		s.mod.StreamsStarted++
		s.startStream(ctx)
		return false, nil
	case bytes.HasPrefix(target, []byte("/login")):
		// The login endpoint of the brute-force scenarios: password
		// checking costs real work (the hash), and every scripted
		// attempt fails.
		ctx.Use(model.HTTPParse)
		s.mod.AuthFailures++
		return false, s.respond(ctx, "403 Forbidden", []byte("bad credentials"))
	default:
		return false, s.serveFile(ctx, string(target))
	}
}

// parseRequestLine extracts the target of a GET request: the second
// field of the first line. Fields are split at white space exactly as
// strings.Fields splits them (Unicode white space, with invalid UTF-8
// bytes counting as non-space), without building the field list.
func parseRequestLine(req []byte) ([]byte, bool) {
	end := bytes.Index(req, []byte("\r\n"))
	if end < 0 {
		return nil, false
	}
	method, rest := nextField(req[:end])
	if string(method) != "GET" {
		return nil, false
	}
	target, _ := nextField(rest)
	return target, len(target) > 0
}

// nextField returns the first white-space-separated field of b and the
// bytes after it.
func nextField(b []byte) (field, rest []byte) {
	b = bytes.TrimLeftFunc(b, unicode.IsSpace)
	if end := bytes.IndexFunc(b, unicode.IsSpace); end >= 0 {
		return b[:end], b[end:]
	}
	return b, nil
}

func (s *stage) serveFile(ctx *kernel.Ctx, target string) error {
	if s.fs == nil {
		return s.respond(ctx, "500 Internal Server Error", []byte("no filesystem"))
	}
	// Two service-interface calls into FS (§3.1): name resolution, then
	// file access by inode.
	var content *msg.Msg
	var err error
	ctx.Cross(s.fsDomain, func() {
		var ino fs.Inode
		if ino, err = s.fs.Resolve(ctx, target); err == nil {
			content, err = s.fs.ReadInode(ctx, ino)
		}
	})
	if err != nil {
		s.mod.NotFound++
		return s.respond(ctx, "404 Not Found", []byte("not found"))
	}
	defer content.Free()
	return s.respond(ctx, "200 OK", content.Bytes())
}

// respond formats the response and sends it down the path; TCP
// segments it and closes the connection after the last byte.
func (s *stage) respond(ctx *kernel.Ctx, status string, body []byte) error {
	model := s.k.Model()
	var buf [128]byte
	hdr := appendHeader(buf[:0], status, len(body))
	resp := msg.New(ctx.Owner(), msg.DefaultHeadroom, len(hdr)+len(body))
	resp.Append(hdr)
	resp.Append(body)
	// The content bytes are charged where they are actually touched:
	// checksummed in TCP and copied to the wire in ETH. Charging here as
	// well would triple-count and break the paper's "1 B within 3% of
	// 1 KB" observation.
	ctx.Use(model.HTTPParse / 4)
	return s.h.SendDown(ctx, resp)
}

// appendHeader appends the response header for a body of n bytes.
func appendHeader(dst []byte, status string, n int) []byte {
	dst = append(dst, "HTTP/1.0 "...)
	dst = append(dst, status...)
	dst = append(dst, "\r\nServer: Escort\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, "\r\n\r\n"...)
}

// startCGI emulates a runaway CGI script (§4.1.2): a thread owned by
// the path that computes forever without yielding. Containment — the
// 2 ms maximum-runtime policy — is the only thing that stops it.
func (s *stage) startCGI(ctx *kernel.Ctx) {
	ctx.Use(s.k.Model().CGIDispatch)
	spin := s.cgiSpin
	if spin == 0 {
		spin = 5000
	}
	s.h.Path().Spawn("CGI", func(ctx *kernel.Ctx) {
		for {
			ctx.Use(spin) // infinite loop
		}
	})
}

// startStream launches the paced producer for a QoS stream: chunks of
// StreamChunk bytes at the negotiated rate, sent down the same path so
// every cycle and byte is charged to the stream's owner.
func (s *stage) startStream(ctx *kernel.Ctx) {
	rate := s.streamRate
	if rate <= 0 {
		rate = 1 << 20 // the paper's 1 MBps
	}
	interval := sim.Cycles(uint64(sim.CyclesPerSecond) * StreamChunk / uint64(rate))
	h := s.h
	k := s.k
	payload := make([]byte, StreamChunk)
	s.h.Path().Spawn("qos-producer", func(ctx *kernel.Ctx) {
		// Pace against an absolute schedule so per-chunk processing time
		// does not stretch the period (the rate must hold within 1%).
		next := ctx.Now()
		for h.Path().Alive() {
			chunk := msg.New(ctx.Owner(), msg.DefaultHeadroom, StreamChunk)
			chunk.Append(payload)
			ctx.Use(sim.Cycles(StreamChunk) * k.Model().PerByte)
			if err := h.SendDown(ctx, chunk); err != nil {
				return
			}
			next += interval
			if now := ctx.Now(); next > now {
				ctx.Sleep(next - now)
			} else {
				ctx.Yield() // running behind: let others in, then catch up
			}
		}
	})
}

// Destroy implements module.Stage.
func (s *stage) Destroy(*kernel.Ctx) {}
