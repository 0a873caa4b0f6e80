package pgwire

import (
	"fmt"
	"strings"

	"auditdb/internal/engine"
	"auditdb/internal/value"
)

// utilityResult is the outcome of a SET/RESET/SHOW statement handled
// by the front door itself (the engine's SQL dialect has no session
// parameters; the line-JSON protocol sets them with "set" ops).
type utilityResult struct {
	tag   string
	cols  []string
	kinds []value.Kind
	rows  []value.Row
}

// serverVersion is what ParameterStatus and SHOW server_version
// report. Old enough that no client expects missing-from-us features,
// new enough that none refuses to talk.
const serverVersion = "13.0"

// tryUtility recognizes a single SET/RESET/SHOW statement and applies
// it to the session. handled=false means the statement is not a
// utility and must go to the engine. PostgreSQL drivers issue
// configuration SETs on connect (extra_float_digits, application_name,
// …); unknown parameters are accepted and ignored so every libpq
// client can get through the door, while the engine's own session
// settings (engine.LookupSetting) take effect.
func tryUtility(sess *engine.Session, sql string) (res *utilityResult, handled bool, err error) {
	s := strings.TrimSpace(sql)
	s = strings.TrimSuffix(s, ";")
	s = strings.TrimSpace(s)
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return nil, false, nil
	}
	switch strings.ToUpper(fields[0]) {
	case "SET":
		return setUtility(sess, fields[1:])
	case "RESET":
		if len(fields) != 2 {
			return nil, false, nil
		}
		if st := engine.LookupSetting(strings.ToLower(fields[1])); st != nil {
			st.Reset(sess)
		}
		return &utilityResult{tag: "RESET"}, true, nil
	case "SHOW":
		if len(fields) < 2 {
			return nil, false, nil
		}
		// SHOW TRACES, SHOW TRACE FOR <qid>, and SHOW AUDIT QUEUE /
		// VERDICTS are engine statements (the trace ring and triage queue
		// live in the engine), not session parameters; bare SHOW trace
		// still reports the session flag below.
		if strings.EqualFold(fields[1], "traces") ||
			strings.EqualFold(fields[1], "audit") ||
			(strings.EqualFold(fields[1], "trace") && len(fields) > 2) {
			return nil, false, nil
		}
		return showUtility(sess, strings.ToLower(strings.Join(fields[1:], "_")))
	}
	return nil, false, nil
}

func setUtility(sess *engine.Session, args []string) (*utilityResult, bool, error) {
	// SET [SESSION|LOCAL] name [TO|=] value — also "name=value" fused.
	if len(args) > 0 {
		switch strings.ToUpper(args[0]) {
		case "SESSION", "LOCAL":
			args = args[1:]
		}
	}
	joined := strings.Join(args, " ")
	var name, val string
	if eq := strings.Index(joined, "="); eq >= 0 {
		name, val = joined[:eq], joined[eq+1:]
	} else if len(args) >= 3 && strings.EqualFold(args[1], "TO") {
		name, val = args[0], strings.Join(args[2:], " ")
	} else if len(args) == 2 {
		name, val = args[0], args[1]
	} else {
		return nil, false, nil
	}
	name = strings.ToLower(strings.TrimSpace(name))
	val = strings.TrimSpace(val)
	val = strings.Trim(val, `'"`)

	// Driver boilerplate (extra_float_digits, application_name,
	// client_encoding, search_path, …) is accepted and ignored.
	if st := engine.LookupSetting(name); st != nil {
		if err := st.Set(sess, val); err != nil {
			return nil, true, err
		}
	}
	return &utilityResult{tag: "SET"}, true, nil
}

func showUtility(sess *engine.Session, name string) (*utilityResult, bool, error) {
	var val string
	switch name {
	case "server_version":
		val = serverVersion
	case "server_encoding", "client_encoding":
		val = "UTF8"
	case "transaction_isolation", "transaction_isolation_level":
		// Honest: readers see writers' in-progress changes (DESIGN §9).
		val = "read uncommitted"
	case "standard_conforming_strings", "integer_datetimes":
		val = "on"
	case "datestyle":
		val = "ISO, MDY"
	case "timezone":
		val = "UTC"
	default:
		st := engine.LookupSetting(name)
		if st == nil {
			return nil, true, fmt.Errorf("unrecognized configuration parameter %q", name)
		}
		val = st.Show(sess)
	}
	return &utilityResult{
		tag:   "SHOW",
		cols:  []string{name},
		kinds: []value.Kind{value.KindString},
		rows:  []value.Row{{value.NewString(val)}},
	}, true, nil
}
