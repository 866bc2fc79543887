package huffman

// ModelTables exposes a model's lexicons and codes to the external
// reference tests, which decode with tables of their own built from the
// codeword lengths.
func ModelTables(m *TextModel) (words, seps []string, wordCode, sepCode *Code) {
	return m.words.tokens, m.seps.tokens, m.wordCode, m.sepCode
}
