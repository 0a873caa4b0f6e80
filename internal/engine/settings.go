package engine

import (
	"fmt"
	"strconv"
	"strings"
)

// Setting is one session setting front ends expose by name: pgwire's
// SET/SHOW/RESET and line-JSON's "set" op both resolve names here, so
// the accepted spellings, the reported value and the reset value are
// declared once. Values are case-insensitive; booleans accept
// on/off, true/false and 1/0.
type Setting struct {
	name  string
	apply func(s *Session, val string) error
	show  func(s *Session) string
	reset string
}

var settings = []*Setting{
	{name: "workers", reset: "0",
		apply: func(s *Session, val string) error {
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return fmt.Errorf("parameter %q requires a non-negative integer: %q", "workers", val)
			}
			s.SetWorkers(n)
			return nil
		},
		show: func(s *Session) string { return strconv.Itoa(s.Workers()) }},
	boolSetting("audit_all", "off", (*Session).SetAuditAll, (*Session).AuditAll),
	fixed("placement", "audit-operator placement is fixed by the server",
		func(s *Session) string { return s.e.Heuristic().String() }),
	boolSetting("trace", "off", (*Session).SetTrace, (*Session).TraceOn),
	fixed("triage", "triage is set server-wide by auditdbd -triage-workers",
		func(s *Session) string {
			if s.e.triage.Enabled() {
				return "on"
			}
			return "off"
		}),
	boolSetting("skipping", "on", (*Session).SetSkipping, (*Session).SkippingOn),
}

func boolSetting(name, reset string, set func(*Session, bool), get func(*Session) bool) *Setting {
	return &Setting{name: name, reset: reset,
		apply: func(s *Session, val string) error {
			switch strings.ToLower(val) {
			case "on", "true", "1":
				set(s, true)
			case "off", "false", "0":
				set(s, false)
			default:
				return fmt.Errorf("parameter %q requires on or off: %q", name, val)
			}
			return nil
		},
		show: func(s *Session) string {
			if get(s) {
				return "on"
			}
			return "off"
		}}
}

// fixed declares a read-only row for an engine property no session may
// change: SHOW reports the engine's value, SET fails whatever the value
// and names the server-side control, RESET does nothing. Declaring the
// name keeps pgwire from absorbing a SET of it as driver boilerplate.
func fixed(name, control string, show func(s *Session) string) *Setting {
	return &Setting{name: name, show: show,
		apply: func(*Session, string) error {
			return fmt.Errorf("parameter %q cannot be changed: %s", name, control)
		}}
}

// LookupSetting returns the session setting with the given lower-case
// name, or nil when there is none.
func LookupSetting(name string) *Setting {
	for _, st := range settings {
		if st.name == name {
			return st
		}
	}
	return nil
}

// Set parses val and applies it to the session.
func (st *Setting) Set(s *Session, val string) error { return st.apply(s, val) }

// Show reports the current value; a settable row's in the spelling Set
// accepts.
func (st *Setting) Show(s *Session) string { return st.show(s) }

// Reset restores the setting's default (RESET). Reset values always
// parse; a fixed row's apply only refuses, so its RESET changes nothing.
func (st *Setting) Reset(s *Session) { _ = st.apply(s, st.reset) }
