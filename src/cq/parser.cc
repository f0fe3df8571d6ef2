#include "cq/parser.h"

#include <cctype>
#include <charconv>
#include <string>
#include <system_error>
#include <vector>

#include "util/string_util.h"

namespace bagcq::cq {

namespace {

using util::Result;
using util::Status;

// Minimal hand-rolled tokenizer: identifiers, integers, punctuation.
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= text_.size();
  }

  bool Consume(std::string_view token) {
    SkipSpace();
    if (text_.substr(pos_).starts_with(token)) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  // Identifier: [A-Za-z_][A-Za-z0-9_']*.
  bool ConsumeIdentifier(std::string* out) {
    SkipSpace();
    size_t start = pos_;
    if (pos_ >= text_.size()) return false;
    unsigned char c = static_cast<unsigned char>(text_[pos_]);
    if (!std::isalpha(c) && c != '_') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      c = static_cast<unsigned char>(text_[pos_]);
      if (std::isalnum(c) || c == '_' || c == '\'') {
        ++pos_;
      } else {
        break;
      }
    }
    *out = std::string(text_.substr(start, pos_ - start));
    return true;
  }

  // Optionally signed decimal integer: [+-]?[0-9]+, which must fit an int.
  Status ConsumeInteger(int* out) {
    SkipSpace();
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    size_t digits = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == digits) {
      pos_ = start;
      return Status::ParseError("expected integer " + Context());
    }
    // from_chars takes a leading '-' but not a '+'.
    const char* first = text_.data() + (text_[start] == '+' ? digits : start);
    if (std::from_chars(first, text_.data() + pos_, *out).ec != std::errc()) {
      pos_ = start;
      return Status::ParseError("integer out of range " + Context());
    }
    return Status::OK();
  }

  std::string Context() const {
    size_t end = std::min(pos_ + 20, text_.size());
    return "near '" + std::string(text_.substr(pos_, end - pos_)) + "'";
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

// Appends the index of each variable name to *vars, adding the names q has
// not seen. More distinct variables than a VarSet holds is a ParseError.
Status ResolveVariables(const std::vector<std::string>& names,
                        ConjunctiveQuery* q, std::vector<int>* vars) {
  for (const std::string& name : names) {
    int v = q->FindVariable(name);
    if (v < 0) {
      if (q->num_vars() == VarSet::kMaxVars) {
        return Status::ParseError("more than " +
                                  std::to_string(VarSet::kMaxVars) +
                                  " distinct variables");
      }
      v = q->AddVariable(name);
    }
    vars->push_back(v);
  }
  return Status::OK();
}

// Parses "Rel(arg, arg, ...)"; returns relation name and argument tokens.
Status ParseAtomShape(Lexer* lex, std::string* name,
                      std::vector<std::string>* args) {
  args->clear();
  if (!lex->ConsumeIdentifier(name)) {
    return Status::ParseError("expected relation name " + lex->Context());
  }
  if (!lex->Consume("(")) {
    return Status::ParseError("expected '(' after " + *name);
  }
  if (lex->Consume(")")) return Status::OK();
  while (true) {
    std::string arg;
    if (!lex->ConsumeIdentifier(&arg)) {
      return Status::ParseError("expected variable in atom " + *name + " " +
                                lex->Context());
    }
    args->push_back(std::move(arg));
    if (lex->Consume(")")) return Status::OK();
    if (!lex->Consume(",")) {
      return Status::ParseError("expected ',' or ')' in atom " + *name + " " +
                                lex->Context());
    }
  }
}

}  // namespace

Result<ConjunctiveQuery> ParseQueryWithVocabulary(std::string_view text,
                                                  Vocabulary vocab) {
  Lexer lex(text);
  ConjunctiveQuery q(std::move(vocab));

  // Optional head: "Name(args) :-".
  Lexer probe = lex;
  std::string head_name;
  std::vector<std::string> head_args;
  std::vector<int> head_vars;
  bool has_head = false;
  if (ParseAtomShape(&probe, &head_name, &head_args).ok() &&
      probe.Consume(":-")) {
    has_head = true;
    lex = probe;
    BAGCQ_RETURN_NOT_OK(ResolveVariables(head_args, &q, &head_vars));
  }

  // Body: atom, atom, ... with optional trailing '.'.
  while (true) {
    std::string name;
    std::vector<std::string> args;
    BAGCQ_RETURN_NOT_OK(ParseAtomShape(&lex, &name, &args));
    auto rel = q.mutable_vocab()->FindOrAdd(name, static_cast<int>(args.size()));
    if (!rel.ok()) return rel.status();
    std::vector<int> vars;
    BAGCQ_RETURN_NOT_OK(ResolveVariables(args, &q, &vars));
    q.AddAtom(*rel, std::move(vars));
    if (lex.Consume(",")) continue;
    lex.Consume(".");
    break;
  }
  if (!lex.AtEnd()) {
    return Status::ParseError("trailing input " + lex.Context());
  }
  if (has_head) {
    q.SetHead(head_vars);
    if (!q.AllVarsUsed()) {
      return Status::ParseError("head variables must occur in the body");
    }
  }
  if (!q.AllVarsUsed()) {
    return Status::ParseError("every variable must occur in the body");
  }
  return q;
}

Result<ConjunctiveQuery> ParseQuery(std::string_view text) {
  return ParseQueryWithVocabulary(text, Vocabulary());
}

Result<Structure> ParseStructureWithVocabulary(std::string_view text,
                                               Vocabulary vocab) {
  Lexer lex(text);
  // First pass collects (name, tuples); arities fix the vocabulary.
  struct Block {
    std::string name;
    std::vector<Structure::Tuple> tuples;
    int arity = -1;
  };
  std::vector<Block> blocks;
  while (!lex.AtEnd()) {
    Block block;
    if (!lex.ConsumeIdentifier(&block.name)) {
      return Status::ParseError("expected relation name " + lex.Context());
    }
    if (!lex.Consume("=")) {
      return Status::ParseError("expected '=' after " + block.name);
    }
    if (!lex.Consume("{")) {
      return Status::ParseError("expected '{' " + lex.Context());
    }
    if (!lex.Consume("}")) {
      while (true) {
        if (!lex.Consume("(")) {
          return Status::ParseError("expected '(' " + lex.Context());
        }
        Structure::Tuple t;
        if (!lex.Consume(")")) {
          while (true) {
            int value;
            BAGCQ_RETURN_NOT_OK(lex.ConsumeInteger(&value));
            t.push_back(value);
            if (lex.Consume(")")) break;
            if (!lex.Consume(",")) {
              return Status::ParseError("expected ',' or ')' " + lex.Context());
            }
          }
        }
        if (block.arity < 0) block.arity = static_cast<int>(t.size());
        if (block.arity != static_cast<int>(t.size())) {
          return Status::ParseError("mixed arities in relation " + block.name);
        }
        block.tuples.push_back(std::move(t));
        if (lex.Consume("}")) break;
        if (!lex.Consume(",")) {
          return Status::ParseError("expected ',' or '}' " + lex.Context());
        }
      }
    }
    if (block.arity < 0) block.arity = 0;
    blocks.push_back(std::move(block));
    lex.Consume(";");
  }
  for (const Block& block : blocks) {
    // "R = {}" adopts the declared arity when the symbol is already known.
    if (block.tuples.empty() && vocab.Find(block.name) >= 0) continue;
    auto rel = vocab.FindOrAdd(block.name, block.arity);
    if (!rel.ok()) return rel.status();
  }
  Structure out(std::move(vocab));
  for (const Block& block : blocks) {
    int rel = out.vocab().Find(block.name);
    for (const Structure::Tuple& t : block.tuples) {
      out.AddTuple(rel, t);
    }
  }
  return out;
}

Result<Structure> ParseStructure(std::string_view text) {
  return ParseStructureWithVocabulary(text, Vocabulary());
}

}  // namespace bagcq::cq
