package snapshot

import (
	"container/list"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Table errors.
var (
	// ErrQuota rejects a park that would exceed the tenant's resident
	// session quota.
	ErrQuota = errors.New("snapshot: tenant session quota exhausted")
	// ErrNotFound reports a resume for a session that does not exist, has
	// expired, was evicted, or belongs to a different tenant (the three
	// are deliberately indistinguishable to the caller).
	ErrNotFound = errors.New("snapshot: no such session")
)

// Session is one parked computation: an encoded continuation plus the
// cumulative accounting the serving layer reports across segments. The
// table owns Expires; everything else is the caller's.
type Session struct {
	ID     string
	Tenant string
	Hash   string // content hash of the image the continuation resumes on
	Enc    []byte // encoded continuation (Encode)

	// Cumulative accounting across every parked segment so far.
	Steps    uint64
	Cycles   uint64
	Refs     uint64
	Segments int

	Expires time.Time
}

// TableConfig bounds the session table.
type TableConfig struct {
	MaxSessions  int           // resident cap; LRU-evicted beyond it (default 1024)
	MaxPerTenant int           // per-tenant resident cap; parks beyond it fail with ErrQuota (0 = no per-tenant cap)
	MaxBytes     int64         // resident encoded-bytes budget; LRU-evicted beyond it (0 = unlimited)
	TTL          time.Duration // session lifetime from its latest park (default 5m)
	Now          func() time.Time
}

func (c TableConfig) withDefaults() TableConfig {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.TTL <= 0 {
		c.TTL = 5 * time.Minute
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Stats is the table's cumulative accounting, exported as fpc_session_*.
type Stats struct {
	Parked        uint64 // sessions parked (incl. re-parks of resumed sessions)
	Resumed       uint64 // sessions handed back out by Take
	Expired       uint64 // sessions dropped past their TTL
	Evicted       uint64 // sessions LRU-evicted by the count or byte budget
	QuotaRejected uint64 // parks refused by a tenant quota
	NotFound      uint64 // Takes that found nothing (incl. expired/evicted)
	Resident      int    // sessions currently parked
	Bytes         int64  // encoded bytes currently parked
}

// Table is the parked-session store: an LRU over encoded continuations
// with a TTL, a global count/byte budget, and per-tenant quotas. Safe for
// concurrent use.
type Table struct {
	mu        sync.Mutex
	cfg       TableConfig
	lru       *list.List // of *Session; front = most recently parked
	byID      map[string]*list.Element
	perTenant map[string]int
	bytes     int64
	stats     Stats
}

// NewTable creates a session table.
func NewTable(cfg TableConfig) *Table {
	return &Table{
		cfg:       cfg.withDefaults(),
		lru:       list.New(),
		byID:      make(map[string]*list.Element),
		perTenant: make(map[string]int),
	}
}

func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("snapshot: no entropy for session ids: " + err.Error())
	}
	return "s-" + hex.EncodeToString(b[:])
}

// Park stores s and returns its session id, assigning a fresh one when
// s.ID is empty (a re-park after a resumed segment keeps its id, so the
// client holds one handle for the whole computation). The table takes
// ownership of s.
func (t *Table) Park(s *Session) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.cfg.Now()
	t.purgeExpiredLocked(now)

	if s.ID == "" {
		s.ID = newSessionID()
	} else if el, ok := t.byID[s.ID]; ok {
		old := el.Value.(*Session)
		if old.Tenant != s.Tenant {
			t.stats.QuotaRejected++
			return "", fmt.Errorf("%w: id collision", ErrQuota)
		}
		t.removeLocked(el)
	}
	if t.cfg.MaxPerTenant > 0 && t.perTenant[s.Tenant] >= t.cfg.MaxPerTenant {
		t.stats.QuotaRejected++
		return "", ErrQuota
	}

	s.Expires = now.Add(t.cfg.TTL)
	t.byID[s.ID] = t.lru.PushFront(s)
	t.perTenant[s.Tenant]++
	t.bytes += int64(len(s.Enc))
	t.stats.Parked++

	// Budget enforcement: evict from the cold end, never the session just
	// parked (a park that was immediately evicted would be a silent drop).
	for t.lru.Len() > t.cfg.MaxSessions ||
		(t.cfg.MaxBytes > 0 && t.bytes > t.cfg.MaxBytes && t.lru.Len() > 1) {
		victim := t.lru.Back()
		if victim == nil || victim.Value.(*Session) == s {
			break
		}
		t.removeLocked(victim)
		t.stats.Evicted++
	}
	return s.ID, nil
}

// Take removes and returns the tenant's parked session. A missing,
// expired, evicted, or foreign session is uniformly ErrNotFound: the
// continuation is gone (or was never yours) and the computation must be
// re-submitted from the start.
func (t *Table) Take(tenant, id string) (*Session, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	el, ok := t.byID[id]
	if !ok {
		t.stats.NotFound++
		return nil, ErrNotFound
	}
	s := el.Value.(*Session)
	if s.Tenant != tenant {
		t.stats.NotFound++
		return nil, ErrNotFound
	}
	if !s.Expires.After(t.cfg.Now()) {
		t.removeLocked(el)
		t.stats.Expired++
		t.stats.NotFound++
		return nil, ErrNotFound
	}
	t.removeLocked(el)
	t.stats.Resumed++
	return s, nil
}

// Stats returns a snapshot of the table's accounting.
func (t *Table) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.purgeExpiredLocked(t.cfg.Now())
	s := t.stats
	s.Resident = t.lru.Len()
	s.Bytes = t.bytes
	return s
}

func (t *Table) removeLocked(el *list.Element) {
	s := el.Value.(*Session)
	t.lru.Remove(el)
	delete(t.byID, s.ID)
	t.bytes -= int64(len(s.Enc))
	if t.perTenant[s.Tenant]--; t.perTenant[s.Tenant] <= 0 {
		delete(t.perTenant, s.Tenant)
	}
}

func (t *Table) purgeExpiredLocked(now time.Time) {
	for el := t.lru.Back(); el != nil; {
		prev := el.Prev()
		if !el.Value.(*Session).Expires.After(now) {
			t.removeLocked(el)
			t.stats.Expired++
		}
		el = prev
	}
}
