package wire

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
)

// reference is how every request line was decoded before the fast path.
func reference(line []byte) (Request, error) {
	var req Request
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	err := dec.Decode(&req)
	return req, err
}

// TestDecodeRequestMatchesJSON is the differential test for the request
// fast path: whatever the line, DecodeRequest returns what encoding/json
// returns — the same Request or the same error — and the lines the fast
// path is meant for do take it.
func TestDecodeRequestMatchesJSON(t *testing.T) {
	lines := []struct {
		line string
		fast bool
	}{
		{`{"op":"query","sql":"SELECT 1"}` + "\n", true},
		{`{"op":"exec","sql":"INSERT INTO T VALUES (1, 'x')"}`, true},
		{` { "sql" : "SELECT Name FROM Patients" , "op" : "query" } ` + "\r\n", true},
		{`{"op":"query"}`, true},
		{`{"op":"query","sql":""}`, true},
		// What json.Marshal on the client makes of SQL text.
		{`{"op":"query","sql":"SELECT a FROM t WHERE a \u003c 3 AND b \u003e 4 AND c = 'x \u0026 y'"}`, true},
		{`{"op":"query","sql":"quote \" backslash \\ slash \/ \b\f\n\r\t \u00e9 \u2028 \u0000 \u00E9"}`, true},
		{`{"op":"query","sql":"héllo 日本語 🎉"}`, true},
		// Everything else is encoding/json's.
		{`{"op":"ping"}`, false},
		{`{"op":"set","key":"user","value":"dr_mallory"}`, false},
		{`{"op":"run","stmt":3,"params":[1,2.5,"x",null,true,12345678901234567890]}`, false},
		{`{"op":"query","sql":"a","sql":"b"}`, false},
		{`{"op":"query","op":"exec","sql":"a"}`, false},
		{`{"OP":"query","SQL":"case-insensitive keys"}`, false},
		{`{"o\u0070":"query","sql":"escaped key"}`, false},
		{`{"op":"quer\u0079","sql":"escaped op"}`, false},
		{`{"op":"query","sql":"surrogates \ud83c\udf89"}`, false},
		{`{"op":"query","sql":"lone surrogate \ud83c"}`, false},
		{`{"op":"query","sql":"bad escape \x"}`, false},
		{`{"op":"query","sql":"short \u12"}`, false},
		{`{"op":"query","sql":"short \u123"}`, false},
		{"{\"op\":\"query\",\"sql\":\"raw control \x01\"}", false},
		{"{\"op\":\"query\",\"sql\":\"raw newline \n\"}", false},
		{"{\"op\":\"query\",\"sql\":\"invalid utf8 \xff\"}", false},
		{`{"op":"query","sql":"trailing"} {"op":"ping"}`, false},
		{`{"op":"query","sql":"trailing"} x`, false},
		{`{"op":"query","sql":"unterminated`, false},
		{`{"op":"query","sql":"x",}`, false},
		{`{"op":"query" "sql":"x"}`, false},
		{`{"op":"query","sql":1}`, false},
		{`{"op":null,"sql":"x"}`, false},
		{`{"sql":"no op"}`, false},
		{`{}`, false},
		{`[]`, false},
		{`"query"`, false},
		{``, false},
		{`{`, false},
		{`{"op"`, false},
		{`{"op":`, false},
		{`{"op":"query"`, false},
		{"\xef\xbb\xbf" + `{"op":"query","sql":"bom"}`, false},
	}
	for _, tc := range lines {
		want, wantErr := reference([]byte(tc.line))
		if _, _, took := decodeOpSQL([]byte(tc.line)); took != tc.fast {
			t.Errorf("%q: fast path taken = %v, want %v", tc.line, took, tc.fast)
		}
		got := Request{Op: "stale", Params: []any{1}} // DecodeRequest must reset it
		err := DecodeRequest([]byte(tc.line), &got)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Errorf("%q: err = %v, encoding/json: %v", tc.line, err, wantErr)
			continue
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%q: got %+v, encoding/json: %+v", tc.line, got, want)
		}
	}

	// Generated: client-encoded requests over arbitrary SQL bytes, and
	// mutations of them (a flipped, dropped or inserted byte).
	rng := rand.New(rand.NewSource(29))
	alphabet := []byte(`abc {}[]:,"\/'<>&=u0123dD8fF` + "\n\t\x00\x7f\xc3\xa9\xe2\x80\xa8\xff")
	for i := 0; i < 20000; i++ {
		sql := make([]byte, rng.Intn(40))
		for j := range sql {
			sql[j] = alphabet[rng.Intn(len(alphabet))]
		}
		line, err := json.Marshal(&Request{Op: []string{OpQuery, OpExec, OpPing, "Query"}[rng.Intn(4)], SQL: string(sql)})
		if err != nil {
			t.Fatal(err)
		}
		line = append(line, '\n')
		switch rng.Intn(4) {
		case 0:
			line[rng.Intn(len(line))] = alphabet[rng.Intn(len(alphabet))]
		case 1:
			at := rng.Intn(len(line))
			line = append(line[:at], line[at+1:]...)
		case 2:
			at := rng.Intn(len(line))
			line = append(line[:at], append([]byte{alphabet[rng.Intn(len(alphabet))]}, line[at:]...)...)
		}
		want, wantErr := reference(line)
		var got Request
		err = DecodeRequest(line, &got)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%q: err = %v, encoding/json: %v", line, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: got %+v, encoding/json: %+v", line, got, want)
		}
	}
}
