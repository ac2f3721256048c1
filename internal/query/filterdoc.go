package query

// FilterDocument converts a Predicate back into its MongoDB-style filter
// document, the inverse of ParseFilter. Clients use it to render
// deterministic query URLs. A True predicate returns nil (empty filter).
func FilterDocument(p Predicate) map[string]any {
	switch t := p.(type) {
	case nil:
		return nil
	case True:
		return nil
	case *Field:
		return map[string]any{t.Path: map[string]any{string(t.Op): jsonValue(t.Value)}}
	case *And:
		return compoundDocument("$and", t.Children)
	case *Or:
		return compoundDocument("$or", t.Children)
	case *Not:
		child := FilterDocument(t.Child)
		if child == nil {
			child = map[string]any{}
		}
		return map[string]any{"$not": child}
	default:
		return nil
	}
}

func compoundDocument(op string, children []Predicate) map[string]any {
	list := make([]any, 0, len(children))
	for _, c := range children {
		doc := FilterDocument(c)
		if doc == nil {
			doc = map[string]any{}
		}
		list = append(list, doc)
	}
	return map[string]any{op: list}
}

// jsonValue returns v as json.Marshal has to see it for ParseJSON to read
// back the value the query key names. The key (document.Canonical) prints
// an integral float64 as the int64 it equals, but json.Marshal prints the
// float's shortest decimal, which past 2^53 is another integer:
// 993900771992172032.0 marshals as 993900771992172000. As an int64 it
// keeps every digit.
func jsonValue(v any) any {
	switch t := v.(type) {
	case float64:
		if t == float64(int64(t)) {
			return int64(t)
		}
	case []any:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = jsonValue(e)
		}
		return out
	case map[string]any:
		out := make(map[string]any, len(t))
		for k, e := range t {
			out[k] = jsonValue(e)
		}
		return out
	}
	return v
}
