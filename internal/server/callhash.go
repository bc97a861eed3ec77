package server

import (
	"net/http"
	"strings"

	fpc "repro"
	"repro/internal/registry"
)

// The /call/{hash} endpoint: invoke a cached image directly by the
// content address /run returned, skipping even the submission body. This
// is the registry's fully amortized serving shape — a repeat caller sends
// a 64-hex hash and arguments and gets a pooled machine run with zero
// load-path work; a hash that is not resident (never submitted, or since
// evicted) is a 404 telling the client to re-submit through /run.
func (s *Server) handleCallHash(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if !s.enter() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	defer s.leave()

	hash := strings.TrimPrefix(r.URL.Path, "/call/")
	if hash == "" || strings.ContainsRune(hash, '/') {
		s.reject(w, http.StatusBadRequest, "want /call/{content-hash}")
		return
	}
	var req CallRequest
	if !s.decodeBody(w, r, &req, false) {
		return
	}
	args, errMsg := convertArgs(req.Args)
	if errMsg != "" {
		s.reject(w, http.StatusBadRequest, errMsg)
		return
	}

	ent, ok := s.reg.Lookup(hash)
	if !ok {
		s.countShed(&s.c.notFound)
		writeRun(w, http.StatusNotFound, &RunResponse{
			Error: "no cached image for this hash; submit it through /run",
		})
		return
	}
	desc, ok := s.pickProc(w, ent, req.Module, req.Proc)
	if !ok {
		return
	}

	cr, status, runErr, ok := s.runOnPool(w, r, s.tenant(tenantKey(r)), ent.Pool(), desc, s.clampBudget(req.Budget), args)
	if !ok {
		return
	}
	resp := RunResponse{Hash: ent.Hash(), Cached: true}
	fillRun(&resp, cr, runErr)
	writeRun(w, status, &resp)
}

// pickProc resolves the procedure a /call/{hash} or /session request names
// in ent's image. Absent module and proc the image's entry procedure runs;
// a cached image is a whole program, so any of its procedures is
// addressable. An unknown procedure is answered here, and ok is false.
func (s *Server) pickProc(w http.ResponseWriter, ent *registry.Entry, module, proc string) (desc fpc.Word, ok bool) {
	if module == "" && proc == "" {
		return ent.Image().Entry(), true
	}
	desc, err := ent.Image().Program().FindProc(module, proc)
	if err != nil {
		s.reject(w, http.StatusBadRequest, err.Error())
		return 0, false
	}
	return desc, true
}
