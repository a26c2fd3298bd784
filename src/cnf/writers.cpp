#include "cnf/writers.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/text.h"

namespace symcolor {
namespace {

void write_opb_terms(std::ostream& out, std::span<const PbTerm> terms) {
  for (const PbTerm& t : terms) {
    out << (t.coeff >= 0 ? "+" : "") << t.coeff << ' '
        << (t.lit.negated() ? "~x" : "x") << (t.lit.var() + 1) << ' ';
  }
}

}  // namespace

void write_opb(std::ostream& out, const Formula& formula) {
  out << "* #variable= " << formula.num_vars()
      << " #constraint= " << formula.num_clauses() + formula.num_pb() << '\n';
  if (formula.objective()) {
    out << "min: ";
    write_opb_terms(out, formula.objective()->terms);
    out << ";\n";
  }
  for (const PbConstraint& c : formula.pb_constraints()) {
    write_opb_terms(out, c.terms());
    out << ">= " << c.bound() << " ;\n";
  }
  for (std::span<const Lit> clause : formula.clauses()) {
    for (Lit l : clause) {
      out << "+1 " << (l.negated() ? "~x" : "x") << (l.var() + 1) << ' ';
    }
    out << ">= 1 ;\n";
  }
}

std::string write_opb_string(const Formula& formula) {
  std::ostringstream out;
  write_opb(out, formula);
  return out.str();
}

namespace {

Lit parse_opb_literal(const std::string& token, int* max_var) {
  std::size_t i = 0;
  bool negated = false;
  if (i < token.size() && token[i] == '~') {
    negated = true;
    ++i;
  }
  if (i >= token.size() || token[i] != 'x') {
    throw std::runtime_error("opb: expected literal, got '" + token + "'");
  }
  const int var1 = std::stoi(token.substr(i + 1));
  if (var1 < 1) throw std::runtime_error("opb: bad variable index");
  *max_var = std::max(*max_var, var1);
  return Lit(var1 - 1, negated);
}

struct ParsedLine {
  std::vector<PbTerm> terms;
  bool is_objective = false;
  bool at_most = false;  // constraint comparator was <=
  bool equality = false;
  std::int64_t bound = 0;
};

ParsedLine parse_opb_line(const std::string& line, int* max_var) {
  ParsedLine parsed;
  std::string body = line;
  if (starts_with(trim(body), "min:")) {
    parsed.is_objective = true;
    body = std::string(trim(body).substr(4));
  }
  auto tokens = split_tokens(body);
  if (!tokens.empty() && tokens.back() == ";") tokens.pop_back();
  std::size_t i = 0;
  while (i < tokens.size()) {
    std::string tok = tokens[i];
    if (!tok.empty() && tok.back() == ';') tok.pop_back();
    if (tok == ">=" || tok == "<=" || tok == "=") {
      if (parsed.is_objective || i + 1 >= tokens.size()) {
        throw std::runtime_error("opb: misplaced comparator");
      }
      parsed.at_most = (tok == "<=");
      parsed.equality = (tok == "=");
      std::string bound_tok = tokens[i + 1];
      if (!bound_tok.empty() && bound_tok.back() == ';') bound_tok.pop_back();
      parsed.bound = std::stoll(bound_tok);
      return parsed;
    }
    if (tok.empty()) {
      ++i;
      continue;
    }
    const std::int64_t coeff = std::stoll(tok);
    if (i + 1 >= tokens.size()) throw std::runtime_error("opb: dangling coeff");
    std::string lit_tok = tokens[i + 1];
    if (!lit_tok.empty() && lit_tok.back() == ';') lit_tok.pop_back();
    parsed.terms.push_back({coeff, parse_opb_literal(lit_tok, max_var)});
    i += 2;
  }
  if (!parsed.is_objective) {
    throw std::runtime_error("opb: constraint line missing comparator");
  }
  return parsed;
}

}  // namespace

Formula read_opb(std::istream& in) {
  std::vector<ParsedLine> lines;
  int max_var = 0;
  std::string line;
  while (std::getline(in, line)) {
    const auto body = trim(line);
    if (body.empty() || body.front() == '*') continue;
    lines.push_back(parse_opb_line(std::string(body), &max_var));
  }
  Formula formula;
  formula.new_vars(max_var);
  for (ParsedLine& parsed : lines) {
    if (parsed.is_objective) {
      formula.set_objective(Objective{std::move(parsed.terms)});
    } else if (parsed.equality) {
      formula.add_pb(PbConstraint::at_least(parsed.terms, parsed.bound));
      formula.add_pb(PbConstraint::at_most(std::move(parsed.terms), parsed.bound));
    } else if (parsed.at_most) {
      formula.add_pb(PbConstraint::at_most(std::move(parsed.terms), parsed.bound));
    } else {
      formula.add_pb(PbConstraint::at_least(std::move(parsed.terms), parsed.bound));
    }
  }
  return formula;
}

Formula read_opb_string(const std::string& text) {
  std::istringstream in(text);
  return read_opb(in);
}

}  // namespace symcolor
