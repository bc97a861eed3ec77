package server

import (
	"errors"
	"fmt"
	"net/http"
	"strings"

	fpc "repro"
	"repro/internal/core"
	"repro/internal/registry"
)

// The /run endpoint: program submission, submit-or-hit. A submission is
// keyed first by a source memo and then by the content hash of its linked
// bytes; first sight pays compile + link + (in verify-at-admission mode)
// the link-time verifier + predecode + boot snapshot exactly once, and
// the image stays resident behind a warm machine pool. Every later
// submission of the same program — same tenant or not — does zero
// load-path work: the response's "cached" field reports which side it
// landed on, and "hash" is the content address /call/{hash} accepts to
// skip even the request body's source text.
//
// A program the verifier rejects costs the server a compile and a static
// analysis, never a simulated instruction, and is never cached: the
// rejection is a 400 carrying the verifier's diagnostics, counted by
// fpcd_verify_rejected_total.

// RunRequest is the /run request body. Modules maps module name to source
// text; Entry is "module.proc".
type RunRequest struct {
	Modules map[string]string `json:"modules"`
	Entry   string            `json:"entry"`
	Args    []int64           `json:"args,omitempty"`
	// Budget is this request's step budget; 0 uses the server default.
	Budget uint64 `json:"budget,omitempty"`
}

// RunResponse is the /run and /call/{hash} response body. On verifier
// rejection only Error and Diagnostics are set — Steps is zero because no
// machine ever ran.
type RunResponse struct {
	Results []uint16 `json:"results,omitempty"`
	Output  []uint16 `json:"output,omitempty"`
	Steps   uint64   `json:"steps"`
	Cycles  uint64   `json:"cycles"`
	Refs    uint64   `json:"refs"`
	// Hash is the content address of the linked program — the key
	// /call/{hash} invokes the cached image by.
	Hash string `json:"hash,omitempty"`
	// Cached reports whether this request hit the registry (zero
	// verification, linking or predecode work was done for it).
	Cached bool `json:"cached"`
	// Certified is always false and is never encoded.
	//
	// Deprecated: the verifier grants no certificate; it only admits or
	// rejects.
	Certified   bool     `json:"-"`
	Error       string   `json:"error,omitempty"`
	Diagnostics []string `json:"diagnostics,omitempty"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if !s.enter() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	defer s.leave()

	var req RunRequest
	if !s.decodeBody(w, r, &req, false) {
		return
	}
	if len(req.Modules) == 0 {
		s.reject(w, http.StatusBadRequest, "modules are required")
		return
	}
	if mod, proc, ok := strings.Cut(req.Entry, "."); !ok || mod == "" || proc == "" {
		s.reject(w, http.StatusBadRequest, `entry must be "module.proc"`)
		return
	}
	args, errMsg := convertArgs(req.Args)
	if errMsg != "" {
		s.reject(w, http.StatusBadRequest, errMsg)
		return
	}
	budget := s.clampBudget(req.Budget)

	ent, cached, ok := s.submitSource(w, req.Modules, req.Entry)
	if !ok {
		return
	}
	cr, status, runErr, ok := s.runOnPool(w, r, s.tenant(tenantKey(r)), ent.Pool(), ent.Image().Entry(), budget, args)
	if !ok {
		return
	}
	resp := RunResponse{Hash: ent.Hash(), Cached: cached}
	fillRun(&resp, cr, runErr)
	writeRun(w, status, &resp)
}

// submitSource is submit-or-hit for a /run-shaped submission whose entry
// the caller has checked is "module.proc". The registry coalesces
// concurrent first sights and returns the resident entry for everything
// after. Only a memo miss runs the build closure (compile + link with the
// linkage policy matched to the serving machine config, the same way fpcd
// links its own program); only a content-hash miss runs the verifier and
// predecode. A verifier rejection or any other build error is answered
// here, and ok is false.
func (s *Server) submitSource(w http.ResponseWriter, modules map[string]string, entry string) (ent *registry.Entry, cached, ok bool) {
	cfg := s.pool.Image().Config()
	ent, cached, err := s.reg.SubmitSource(registry.SourceKey(modules, entry), func() (*fpc.Program, error) {
		entMod, entProc, _ := strings.Cut(entry, ".")
		prog, err := fpc.Build(modules, entMod, entProc, fpc.DefaultLinkOptions(cfg))
		if err != nil {
			return nil, fmt.Errorf("build: %w", err)
		}
		return prog, nil
	})
	if err != nil {
		var verr *core.VerifyError
		if errors.As(err, &verr) {
			s.rejectVerify(w, verr)
		} else {
			s.reject(w, http.StatusBadRequest, err.Error())
		}
		return nil, false, false
	}
	return ent, cached, true
}

// fillRun puts a run's artifacts into a /run-shaped response.
func fillRun(resp *RunResponse, cr *fpc.CallResult, runErr error) {
	if cr != nil {
		resp.Results, resp.Output = cr.Results, cr.Output
		resp.Steps, resp.Cycles, resp.Refs = cr.Steps, cr.Cycles, cr.Refs
	}
	if runErr != nil {
		resp.Error = runErr.Error()
	}
}

// rejectVerify turns a verifier rejection into a 400 whose body carries
// the diagnostics, and counts it: zero machine steps were (or ever will
// be) spent on the program, and nothing was cached.
func (s *Server) rejectVerify(w http.ResponseWriter, verr *core.VerifyError) {
	s.mu.Lock()
	s.c.verifyRejected++
	s.c.badRequests++
	s.mu.Unlock()

	resp := RunResponse{Error: "program rejected by verifier"}
	for _, d := range verr.Report.Diags {
		resp.Diagnostics = append(resp.Diagnostics, d.String())
	}
	writeRun(w, http.StatusBadRequest, &resp)
}

// convertArgs converts request integers to 16-bit machine words, accepting
// negatives as two's complement.
func convertArgs(in []int64) (args []fpc.Word, errMsg string) {
	args = make([]fpc.Word, len(in))
	for i, a := range in {
		if a < -32768 || a > 65535 {
			return nil, fmt.Sprintf("arg %d out of 16-bit range: %d", i, a)
		}
		args[i] = fpc.Word(uint16(a))
	}
	return args, ""
}

func (s *Server) clampBudget(b uint64) uint64 {
	if b == 0 {
		b = s.cfg.DefaultBudget
	}
	if b > s.cfg.MaxBudget {
		b = s.cfg.MaxBudget
	}
	return b
}
