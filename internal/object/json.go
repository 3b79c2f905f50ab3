package object

import (
	"encoding/json"
	"fmt"
)

// The JSON encoding of objects is a tagged representation that
// round-trips every kind unambiguously; it backs storage snapshots
// (internal/storage) and the CLI's dump/load commands.
//
//	null            → {"k":"null"}
//	Bool(true)      → {"k":"bool","v":true}
//	Int(5)          → {"k":"int","v":"5"}          (string: avoids float53 loss)
//	Float(2.5)      → {"k":"float","v":2.5}
//	Str("hp")       → {"k":"str","v":"hp"}
//	Date(1985,3,3)  → {"k":"date","y":1985,"m":3,"d":3}
//	Tuple           → {"k":"tup","a":["date",…],"v":[…]}
//	Set             → {"k":"set","v":[…]}

type jsonObject struct {
	K string            `json:"k"`
	V json.RawMessage   `json:"v,omitempty"`
	A []string          `json:"a,omitempty"`
	T []json.RawMessage `json:"t,omitempty"`
	Y int               `json:"y,omitempty"`
	M int               `json:"m,omitempty"`
	D int               `json:"d,omitempty"`
}

// MarshalJSON encodes any Object in the tagged representation.
func MarshalJSON(o Object) ([]byte, error) {
	switch v := o.(type) {
	case Null:
		return json.Marshal(jsonObject{K: "null"})
	case Bool:
		raw, _ := json.Marshal(bool(v))
		return json.Marshal(jsonObject{K: "bool", V: raw})
	case Int:
		raw, _ := json.Marshal(fmt.Sprintf("%d", int64(v)))
		return json.Marshal(jsonObject{K: "int", V: raw})
	case Float:
		raw, err := json.Marshal(float64(v))
		if err != nil {
			return nil, err
		}
		return json.Marshal(jsonObject{K: "float", V: raw})
	case Str:
		raw, _ := json.Marshal(string(v))
		return json.Marshal(jsonObject{K: "str", V: raw})
	case Date:
		return json.Marshal(jsonObject{K: "date", Y: v.Year, M: v.Month, D: v.Day})
	case *Tuple:
		enc := jsonObject{K: "tup", A: v.Attrs()}
		for _, val := range v.Values() {
			raw, err := MarshalJSON(val)
			if err != nil {
				return nil, err
			}
			enc.T = append(enc.T, raw)
		}
		return json.Marshal(enc)
	case *Set:
		enc := jsonObject{K: "set"}
		var err error
		v.Each(func(e Object) bool {
			var raw []byte
			raw, err = MarshalJSON(e)
			if err != nil {
				return false
			}
			enc.T = append(enc.T, raw)
			return true
		})
		if err != nil {
			return nil, err
		}
		return json.Marshal(enc)
	default:
		return nil, fmt.Errorf("object: cannot marshal %T", o)
	}
}

// UnmarshalJSON decodes an Object from the tagged representation.
func UnmarshalJSON(data []byte) (Object, error) {
	var enc jsonObject
	if err := json.Unmarshal(data, &enc); err != nil {
		return nil, err
	}
	switch enc.K {
	case "null":
		return Null{}, nil
	case "bool":
		var b bool
		if err := json.Unmarshal(enc.V, &b); err != nil {
			return nil, err
		}
		return Bool(b), nil
	case "int":
		var s string
		if err := json.Unmarshal(enc.V, &s); err != nil {
			return nil, err
		}
		var n int64
		if _, err := fmt.Sscanf(s, "%d", &n); err != nil {
			return nil, fmt.Errorf("object: bad int payload %q", s)
		}
		return Int(n), nil
	case "float":
		var f float64
		if err := json.Unmarshal(enc.V, &f); err != nil {
			return nil, err
		}
		return Float(f), nil
	case "str":
		var s string
		if err := json.Unmarshal(enc.V, &s); err != nil {
			return nil, err
		}
		return Str(s), nil
	case "date":
		return Date{Year: enc.Y, Month: enc.M, Day: enc.D}, nil
	case "tup":
		if len(enc.A) != len(enc.T) {
			return nil, fmt.Errorf("object: tuple attr/value length mismatch (%d vs %d)", len(enc.A), len(enc.T))
		}
		vals := make([]Object, len(enc.T))
		for i, raw := range enc.T {
			v, err := UnmarshalJSON(raw)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		return NewTupleOf(enc.A, vals), nil
	case "set":
		s := NewSet()
		for _, raw := range enc.T {
			v, err := UnmarshalJSON(raw)
			if err != nil {
				return nil, err
			}
			s.Add(v)
		}
		return s, nil
	default:
		return nil, fmt.Errorf("object: unknown kind tag %q", enc.K)
	}
}
