package server

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"time"

	fpc "repro"
	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/snapshot"
)

// The /session endpoints: first-class continuations over the serving
// layer. A session is a run that survives its machine — a segment runs on
// whatever pooled machine is free under a per-segment step budget, and
// when the budget expires (or the segment hits its output-backpressure
// bound) the machine is snapshotted into a continuation and parked in the
// registry's session table. The machine goes straight back to the pool;
// the parked bytes are the only thing the session holds. A later
// POST /session/{id}/resume restores the continuation onto any pooled
// machine over the image with the session's content hash and runs the next
// segment — byte-identical to never having been interrupted.
//
//	POST /session               start a parkable run
//	POST /session/{id}/resume   run the parked session's next segment
//
// The table is bounded (LRU + TTL + per-tenant quotas); a session that was
// evicted or expired resumes as a 404 and must be re-submitted from the
// start. A session whose *image* was evicted is kept parked and resumes as
// a 409: re-submit the program through /run (same content hash) and resume
// again. Sessions are tenant-scoped: resuming another tenant's id is
// indistinguishable from a missing session.

// errOutputFull is the cancel-hook sentinel for the output-backpressure
// park. It never escapes: the hook's hit flag, not the error chain,
// decides the park (Run wraps hook errors without %w).
var errOutputFull = errors.New("output backpressure bound reached")

// segmentHook is a session segment's cancel hook: it parks the segment
// once it has produced maxOut output words past base (a restored machine
// carries the cumulative stream, so the bound measures growth past the
// restore point), and otherwise reports the request context's error.
type segmentHook struct {
	m      *fpc.Machine
	ctx    context.Context
	base   int
	maxOut int
	hit    bool
}

func (h *segmentHook) Err() error {
	if h.maxOut > 0 && len(h.m.Output)-h.base >= h.maxOut {
		h.hit = true
		return errOutputFull
	}
	return h.ctx.Err()
}

// SessionRequest is the /session request body. The program is named like
// the other endpoints — by content Hash, by submitted Modules+Entry, or
// (absent both) the boot program — and Module/Proc optionally pick a
// procedure other than the entry. Budget is the per-segment step budget;
// MaxOutput, when non-zero, parks the run once a segment has produced that
// many new output words (output backpressure — the client drains the
// cumulative output from the response and resumes).
type SessionRequest struct {
	Modules   map[string]string `json:"modules,omitempty"`
	Entry     string            `json:"entry,omitempty"`
	Hash      string            `json:"hash,omitempty"`
	Module    string            `json:"module,omitempty"`
	Proc      string            `json:"proc,omitempty"`
	Args      []int64           `json:"args,omitempty"`
	Budget    uint64            `json:"budget,omitempty"`
	MaxOutput int               `json:"max_output,omitempty"`
}

// ResumeRequest is the optional /session/{id}/resume body: per-segment
// overrides. An empty body reuses the server defaults.
type ResumeRequest struct {
	Budget    uint64 `json:"budget,omitempty"`
	MaxOutput int    `json:"max_output,omitempty"`
}

// SessionResponse is the /session and /session/{id}/resume response body.
// Exactly one of Done/Parked is true on success. Steps/Cycles/Refs account
// this segment only; TotalSteps and Segments accumulate across the
// session's whole life, and Output is the cumulative stream (a restored
// machine carries its past output forward).
type SessionResponse struct {
	Session    string   `json:"session,omitempty"`
	Done       bool     `json:"done"`
	Parked     bool     `json:"parked"`
	Hash       string   `json:"hash,omitempty"`
	Results    []uint16 `json:"results,omitempty"`
	Output     []uint16 `json:"output,omitempty"`
	Steps      uint64   `json:"steps"`
	TotalSteps uint64   `json:"total_steps"`
	Cycles     uint64   `json:"cycles"`
	Refs       uint64   `json:"refs"`
	Segments   int      `json:"segments"`
	Error      string   `json:"error,omitempty"`
}

func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if !s.enter() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	defer s.leave()

	var req SessionRequest
	if !s.decodeBody(w, r, &req, false) {
		return
	}
	args, errMsg := convertArgs(req.Args)
	if errMsg != "" {
		s.reject(w, http.StatusBadRequest, errMsg)
		return
	}

	ent, ok := s.resolveSessionImage(w, &req)
	if !ok {
		return
	}
	desc, ok := s.pickProc(w, ent, req.Module, req.Proc)
	if !ok {
		return
	}

	tenant := tenantKey(r)
	seg := segment{
		pool:   ent.Pool(),
		budget: s.clampBudget(req.Budget),
		maxOut: req.MaxOutput,
		start:  func(m *fpc.Machine) error { return m.Start(desc, args...) },
	}
	cr, cont, status, runErr, ok := s.runSegment(w, r, s.tenant(tenant), seg)
	if !ok {
		return
	}
	s.finishSegment(w, status, tenant, "", ent.Hash(), cr, cont, nil, runErr)
}

func (s *Server) handleSessionResume(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if !s.enter() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	defer s.leave()

	rest := strings.TrimPrefix(r.URL.Path, "/session/")
	id, op, ok := strings.Cut(rest, "/")
	if !ok || id == "" || op != "resume" {
		s.reject(w, http.StatusBadRequest, "want /session/{id}/resume")
		return
	}
	var req ResumeRequest
	if !s.decodeBody(w, r, &req, true) {
		return
	}

	tenant := tenantKey(r)
	ent, cont, sess, err := s.reg.ResumeSession(tenant, id)
	if err != nil {
		switch {
		case errors.Is(err, snapshot.ErrNotFound):
			s.countShed(&s.c.notFound)
			writeJSON(w, http.StatusNotFound, &SessionResponse{
				Error: "no parked session with this id (expired, evicted, or never parked); start over with /session",
			})
		case errors.Is(err, registry.ErrImageGone):
			// The session survives this — it is re-parked inside
			// ResumeSession awaiting the image's re-submission.
			writeJSON(w, http.StatusConflict, &SessionResponse{Session: id, Error: err.Error()})
		default:
			s.reject(w, http.StatusBadRequest, err.Error())
		}
		return
	}

	seg := segment{
		pool:   ent.Pool(),
		budget: s.clampBudget(req.Budget),
		maxOut: req.MaxOutput,
		start:  func(m *fpc.Machine) error { return m.Restore(cont) },
	}
	cr, next, status, runErr, ok := s.runSegment(w, r, s.tenant(tenant), seg)
	if !ok {
		// The request was shed before a machine ran; the session was
		// already consumed by ResumeSession, so park it back untouched.
		if _, perr := s.reg.Sessions().Park(sess); perr != nil {
			s.countShed(&s.c.runErrors)
		}
		return
	}
	s.finishSegment(w, status, tenant, sess.ID, sess.Hash, cr, next, sess, runErr)
}

// resolveSessionImage picks the registry entry a /session request runs
// against: a resident entry by content hash, a /run-shaped submission, or
// the pinned boot program. Rejections are written here.
func (s *Server) resolveSessionImage(w http.ResponseWriter, req *SessionRequest) (*registry.Entry, bool) {
	switch {
	case req.Hash != "":
		ent, ok := s.reg.Lookup(req.Hash)
		if !ok {
			s.countShed(&s.c.notFound)
			writeJSON(w, http.StatusNotFound, &SessionResponse{
				Error: "no cached image for this hash; submit it through /run",
			})
			return nil, false
		}
		return ent, true
	case len(req.Modules) > 0:
		if mod, proc, ok := strings.Cut(req.Entry, "."); !ok || mod == "" || proc == "" {
			s.reject(w, http.StatusBadRequest, `entry must be "module.proc"`)
			return nil, false
		}
		ent, _, ok := s.submitSource(w, req.Modules, req.Entry)
		return ent, ok
	default:
		return s.boot, true
	}
}

// segment is one budgeted run slice of a session: the pool to borrow a
// machine from, how to arm it (Start for a fresh session, Restore for a
// resume), and the bounds that can park it.
type segment struct {
	pool   *fpc.Pool
	budget uint64
	maxOut int
	start  func(m *fpc.Machine) error
}

// runSegment runs one session segment through the standard admission
// envelope. Unlike a plain call, the machine is snapshotted *before* it
// goes back to the pool whenever the segment ends in a park condition —
// the per-segment budget expiring (ErrMaxSteps) or the output bound
// tripping the cancel probe. A park is a successful outcome: cont comes
// back non-nil and the request accounts as completed. Any other failure
// (trap, deadline, client gone) keeps its usual status and consumes the
// session.
func (s *Server) runSegment(w http.ResponseWriter, r *http.Request, tn *tenantState, seg segment) (cr *fpc.CallResult, cont *core.Continuation, status int, runErr error, ok bool) {
	cr, status, runErr, ok = s.runAdmitted(w, r, tn, func(ctx context.Context, deadline time.Time) (*fpc.CallResult, error) {
		m, err := seg.pool.Get()
		if err != nil {
			return nil, err
		}
		defer seg.pool.Put(m)
		if err := seg.start(m); err != nil {
			return nil, err
		}
		m.SetRunBudget(seg.budget)
		m.SetDeadline(deadline)
		// The output bound is per segment: an absolute bound would re-park
		// a resumed session before it ran a single instruction.
		hook := &segmentHook{m: m, ctx: ctx, base: len(m.Output), maxOut: seg.maxOut}
		if seg.maxOut > 0 || ctx.Done() != nil {
			m.SetCancel(hook)
		}
		err = m.Run()
		res := &fpc.CallResult{Output: append([]fpc.Word(nil), m.Output...)}
		res.Steps, res.Cycles, res.Refs = m.Counts()
		switch {
		case err == nil:
			res.Results = m.Results()
			return res, nil
		case errors.Is(err, core.ErrMaxSteps),
			hook.hit && errors.Is(err, core.ErrCanceled):
			c, serr := m.Snapshot()
			if serr != nil {
				return res, serr
			}
			cont = c
			return res, nil
		default:
			return res, err
		}
	})
	return cr, cont, status, runErr, ok
}

// finishSegment parks a continued segment (under the session's existing id
// on a resume) and writes the response. prev carries the accounting of the
// session's earlier segments; nil on a fresh /session.
func (s *Server) finishSegment(w http.ResponseWriter, status int, tenant, id, hash string, cr *fpc.CallResult, cont *core.Continuation, prev *snapshot.Session, runErr error) {
	resp := SessionResponse{Hash: hash}
	if cr != nil {
		resp.Output = cr.Output
		resp.Steps, resp.Cycles, resp.Refs = cr.Steps, cr.Cycles, cr.Refs
	}
	resp.TotalSteps = resp.Steps
	resp.Segments = 1
	if prev != nil {
		resp.TotalSteps += prev.Steps
		resp.Segments += prev.Segments
	}

	switch {
	case runErr != nil:
		// Failed segments consume the session: the machine state that
		// failed is not worth keeping, and the error says why.
		resp.Error = runErr.Error()
	case cont != nil:
		sess, err := s.reg.ParkSession(tenant, id, cont, prev)
		if err != nil {
			// The run happened but there is nowhere to park it — the
			// tenant's session quota (or the table byte budget refusing
			// even one session) turns the park into a shed.
			s.countShed(&s.c.shedTenant)
			resp.Error = err.Error()
			writeJSON(w, http.StatusTooManyRequests, &resp)
			return
		}
		resp.Session = sess.ID
		resp.Parked = true
		resp.TotalSteps = sess.Steps
		resp.Segments = sess.Segments
	default:
		resp.Done = true
		if cr != nil {
			resp.Results = cr.Results
		}
	}
	writeJSON(w, status, &resp)
}
