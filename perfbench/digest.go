package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// canonicalJSON encodes v with every object's keys sorted, whatever
// the Go types behind it (struct field order, map iteration), and with
// numbers kept exactly as first encoded.
func canonicalJSON(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("encode result rows: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var generic any
	if err := dec.Decode(&generic); err != nil {
		return nil, fmt.Errorf("re-decode result rows: %w", err)
	}
	// encoding/json writes map[string]any keys in sorted order.
	return json.Marshal(generic)
}

// digest is the hex SHA-256 of v's canonical JSON.
func digest(v any) (string, error) {
	b, err := canonicalJSON(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
