#include "analyze/source_model.hpp"

#include <cctype>
#include <cstdlib>
#include <set>

#include "common/strings.hpp"
#include "translate/scan.hpp"

namespace cid::analyze {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Source with comments and string/char literals blanked to spaces
/// (newlines preserved so offsets and line numbers survive).
std::string blank_non_code(std::string_view source,
                           const std::vector<unsigned char>& mask) {
  std::string clean(source);
  for (std::size_t i = 0; i < clean.size(); ++i) {
    if (mask[i] == 0 && clean[i] != '\n') clean[i] = ' ';
  }
  return clean;
}

struct Token {
  std::string text;
  std::size_t pos = 0;
  bool is_ident = false;
};

std::vector<Token> tokenize(std::string_view text) {
  std::vector<Token> tokens;
  std::size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token token;
    token.pos = i;
    if (ident_start(c)) {
      std::size_t j = i;
      while (j < text.size() && ident_char(text[j])) ++j;
      token.text = std::string(text.substr(i, j - i));
      token.is_ident = true;
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i;
      while (j < text.size() && (ident_char(text[j]) || text[j] == '.')) ++j;
      token.text = std::string(text.substr(i, j - i));
      i = j;
    } else {
      token.text = std::string(1, c);
      i += 1;
    }
    tokens.push_back(std::move(token));
  }
  return tokens;
}

/// Keywords that can precede `name[...]` without being a type.
const std::set<std::string>& non_type_keywords() {
  static const std::set<std::string> keywords = {
      "return", "sizeof", "case",  "goto",      "new",     "delete",
      "throw",  "else",   "do",    "co_return", "co_yield", "in",
      "if",     "while",  "for",   "switch",    "not",     "and",
      "or",     "typedef", "using", "operator"};
  return keywords;
}

/// Type qualifiers stripped when normalizing a field's type name.
std::string normalize_type(std::string type) {
  std::string_view view = cid::trim(type);
  for (std::string_view prefix :
       {"const ", "volatile ", "struct ", "class ", "mutable "}) {
    while (cid::starts_with(view, prefix)) {
      view = cid::trim(view.substr(prefix.size()));
    }
  }
  return std::string(cid::trim(view));
}

/// Parse the field declarations of a struct body into `decl`.
void parse_struct_fields(std::string_view body, StructDecl& decl) {
  for (std::string_view segment : cid::split_top_level(body, ';')) {
    std::string_view text = cid::trim(segment);
    if (text.empty()) continue;
    // Methods, constructors, nested definitions, access specifiers.
    if (text.find('(') != std::string_view::npos) continue;
    if (text.find('{') != std::string_view::npos) continue;
    if (text.back() == ':') continue;
    // Drop a default member initializer.
    if (const std::size_t eq = text.find('='); eq != std::string_view::npos) {
      text = cid::trim(text.substr(0, eq));
    }
    if (text.empty()) continue;

    std::string base_type;
    for (std::string_view piece : cid::split_top_level(text, ',')) {
      std::string_view declarator = cid::trim(piece);
      if (declarator.empty()) continue;
      StructFieldDecl field;
      // Array suffix.
      if (const std::size_t bracket = declarator.find('[');
          bracket != std::string_view::npos) {
        field.is_array = true;
        declarator = cid::trim(declarator.substr(0, bracket));
      }
      // The field name is the trailing identifier.
      std::size_t name_end = declarator.size();
      while (name_end > 0 && !ident_char(declarator[name_end - 1])) {
        --name_end;
      }
      std::size_t name_begin = name_end;
      while (name_begin > 0 && ident_char(declarator[name_begin - 1])) {
        --name_begin;
      }
      if (name_begin == name_end) continue;  // no identifier at all
      field.name =
          std::string(declarator.substr(name_begin, name_end - name_begin));
      std::string_view prefix = declarator.substr(0, name_begin);
      field.is_pointer = prefix.find('*') != std::string_view::npos;
      std::string type_text(prefix);
      for (char& c : type_text) {
        if (c == '*' || c == '&') c = ' ';
      }
      type_text = normalize_type(type_text);
      if (!type_text.empty()) base_type = type_text;
      field.type = base_type;
      if (field.name == base_type) continue;  // parsed a lone type name
      decl.fields.push_back(std::move(field));
    }
  }
}

}  // namespace

const StructDecl* SourceModel::struct_of_variable(
    const std::string& variable) const {
  auto type_it = variable_types.find(variable);
  if (type_it == variable_types.end()) return nullptr;
  auto struct_it = structs.find(type_it->second);
  return struct_it == structs.end() ? nullptr : &struct_it->second;
}

std::optional<long long> SourceModel::extent_of(
    const std::string& buffer_text) const {
  const std::string_view trimmed = cid::trim(buffer_text);
  if (trimmed.empty() || !ident_start(trimmed.front())) return std::nullopt;
  for (const char c : trimmed) {
    if (!ident_char(c)) return std::nullopt;  // indexed / member / address-of
  }
  auto it = array_extents.find(std::string(trimmed));
  if (it == array_extents.end()) return std::nullopt;
  return it->second;
}

SourceModel SourceModel::scan(std::string_view source,
                              const translate::DirectiveTree& tree) {
  SourceModel model;
  const std::string clean = blank_non_code(source, tree.mask);
  const std::string_view text = clean;

  // --- struct definitions --------------------------------------------------
  std::size_t search = 0;
  while ((search = text.find("struct", search)) != std::string_view::npos) {
    const std::size_t keyword = search;
    search += 6;
    const bool word =
        (keyword == 0 || !ident_char(text[keyword - 1])) &&
        (keyword + 6 < text.size() && !ident_char(text[keyword + 6]));
    if (!word) continue;
    std::size_t i = keyword + 6;
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (i >= text.size() || !ident_start(text[i])) continue;
    std::size_t name_end = i;
    while (name_end < text.size() && ident_char(text[name_end])) ++name_end;
    std::string name(text.substr(i, name_end - i));
    std::size_t brace = name_end;
    while (brace < text.size() &&
           std::isspace(static_cast<unsigned char>(text[brace]))) {
      ++brace;
    }
    if (brace >= text.size() || text[brace] != '{') continue;  // fwd decl/var
    const std::size_t close = translate::find_block_end(text, brace);
    if (close == std::string_view::npos) continue;
    StructDecl decl;
    decl.name = name;
    decl.line = tree.lines.line_of(keyword);
    parse_struct_fields(text.substr(brace + 1, close - brace - 1), decl);
    model.structs.emplace(std::move(name), std::move(decl));
    search = close;
  }

  // --- CID_REFLECT_STRUCT registrations ------------------------------------
  search = 0;
  while ((search = text.find("CID_REFLECT_STRUCT", search)) !=
         std::string_view::npos) {
    std::size_t i = search + 18;
    search = i;
    while (i < text.size() &&
           (std::isspace(static_cast<unsigned char>(text[i])) ||
            text[i] == '(')) {
      ++i;
    }
    std::size_t name_end = i;
    while (name_end < text.size() && ident_char(text[name_end])) ++name_end;
    if (name_end == i) continue;
    const std::string name(text.substr(i, name_end - i));
    auto it = model.structs.find(name);
    if (it != model.structs.end()) {
      it->second.reflected = true;
    } else {
      StructDecl decl;
      decl.name = name;
      decl.reflected = true;
      decl.line = tree.lines.line_of(i);
      model.structs.emplace(name, std::move(decl));
    }
  }

  // --- array extents and composite variables (token level) -----------------
  const std::vector<Token> tokens = tokenize(text);
  std::set<std::string> ambiguous_extents;
  for (std::size_t t = 0; t + 1 < tokens.size(); ++t) {
    const Token& current = tokens[t];
    const Token& next = tokens[t + 1];
    if (!current.is_ident) continue;

    // `Type name [ N ]` — a constant-extent array declaration.
    if (next.is_ident && t + 4 < tokens.size() && tokens[t + 2].text == "[" &&
        tokens[t + 4].text == "]" && !tokens[t + 3].text.empty() &&
        std::isdigit(static_cast<unsigned char>(tokens[t + 3].text[0])) &&
        non_type_keywords().count(current.text) == 0) {
      const std::string& name = next.text;
      char* parse_end = nullptr;
      const long long extent =
          std::strtoll(tokens[t + 3].text.c_str(), &parse_end, 0);
      if (parse_end == nullptr || *parse_end != '\0' || extent <= 0) continue;
      auto [it, inserted] = model.array_extents.emplace(name, extent);
      if (!inserted && it->second != extent) {
        ambiguous_extents.insert(name);
      }
    }

    // `StructName var` — a composite variable declaration.
    if (next.is_ident && model.structs.count(current.text) != 0 &&
        non_type_keywords().count(next.text) == 0 &&
        (t + 2 >= tokens.size() || tokens[t + 2].text != "(")) {
      model.variable_types.emplace(next.text, current.text);
    }
  }
  for (const auto& name : ambiguous_extents) model.array_extents.erase(name);
  return model;
}

std::string buffer_base_identifier(std::string_view argument) {
  std::size_t i = 0;
  while (i < argument.size() &&
         (argument[i] == '&' || argument[i] == '*' || argument[i] == '(' ||
          std::isspace(static_cast<unsigned char>(argument[i])))) {
    ++i;
  }
  if (i >= argument.size() || !ident_start(argument[i])) return {};
  std::size_t end = i;
  while (end < argument.size() && ident_char(argument[end])) ++end;
  return std::string(argument.substr(i, end - i));
}

}  // namespace cid::analyze
