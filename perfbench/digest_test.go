package main

import (
	"encoding/json"
	"testing"
)

func TestDigestCanonicalOverMaps(t *testing.T) {
	a := map[string]any{}
	b := map[string]any{}
	keys := []string{"zeta", "alpha", "mid", "beta"}
	for i, k := range keys {
		a[k] = i
		b[keys[len(keys)-1-i]] = len(keys) - 1 - i
	}
	da, err := digest(a)
	if err != nil {
		t.Fatal(err)
	}
	db, _ := digest(b)
	if da != db {
		t.Errorf("maps with equal content digest differently: %s vs %s", da, db)
	}

	// A struct and a raw JSON payload with the same fields in another
	// order canonicalize alike; numbers keep their exact digits.
	type row struct {
		WS  float64            `json:"ws"`
		Cap int                `json:"cap"`
		Pol map[string]float64 `json:"pol"`
	}
	s := row{WS: 0.30000000000000004, Cap: 128, Pol: map[string]float64{"b": 2, "a": 1}}
	raw := json.RawMessage(`{"pol":{"a":1,"b":2},"cap":128,"ws":0.30000000000000004}`)
	ds, _ := digest(s)
	dr, _ := digest(raw)
	if ds != dr {
		t.Errorf("struct and reordered JSON digest differently: %s vs %s", ds, dr)
	}
	canon, _ := canonicalJSON(s)
	if want := `{"cap":128,"pol":{"a":1,"b":2},"ws":0.30000000000000004}`; string(canon) != want {
		t.Errorf("canonical form %s, want %s", canon, want)
	}

	s.WS = 0.3
	if d, _ := digest(s); d == ds {
		t.Error("a changed value left the digest unchanged")
	}
}
