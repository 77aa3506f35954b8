#include "verify/moped_format.hpp"

#include <charconv>
#include <sstream>

#include "util/check.hpp"
#include "util/errors.hpp"

namespace aalwines::verify {

namespace {

void write_symbol(std::string& out, pda::Symbol symbol) {
    if (symbol == pda::k_no_symbol) out += "-";
    else if (symbol == pda::k_same_symbol) out += "=";
    else out += std::to_string(symbol);
}

class LineReader {
public:
    explicit LineReader(std::string_view text) : _text(text) {}

    /// Next whitespace-separated token on the current logical stream.
    std::string_view token() {
        while (_pos < _text.size() &&
               (_text[_pos] == ' ' || _text[_pos] == '\n' || _text[_pos] == '\t' ||
                _text[_pos] == '\r'))
            ++_pos;
        const auto start = _pos;
        while (_pos < _text.size() && _text[_pos] != ' ' && _text[_pos] != '\n' &&
               _text[_pos] != '\t' && _text[_pos] != '\r')
            ++_pos;
        return _text.substr(start, _pos - start);
    }

    [[nodiscard]] bool at_end() {
        while (_pos < _text.size() &&
               (_text[_pos] == ' ' || _text[_pos] == '\n' || _text[_pos] == '\t' ||
                _text[_pos] == '\r'))
            ++_pos;
        return _pos >= _text.size();
    }

private:
    std::string_view _text;
    std::size_t _pos = 0;
};

std::uint64_t parse_uint(std::string_view token) {
    std::uint64_t value = 0;
    auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc{} || ptr != token.data() + token.size())
        throw parse_error("moped format: expected a number, got '" + std::string(token) + "'");
    return value;
}

pda::Symbol parse_symbol(std::string_view token) {
    if (token == "-") return pda::k_no_symbol;
    if (token == "=") return pda::k_same_symbol;
    return static_cast<pda::Symbol>(parse_uint(token));
}

} // namespace

std::string write_moped_format(const pda::Pda& pda) {
    std::string out;
    out.reserve(pda.rule_count() * 32 + 64);
    out += "pds " + std::to_string(pda.state_count()) + " " +
           std::to_string(pda.alphabet_size()) + "\n";
    for (pda::Symbol s = 0; s < pda.alphabet_size(); ++s) {
        const auto cls = pda.class_of(s);
        if (cls != pda::k_no_class)
            out += "class " + std::to_string(s) + " " + std::to_string(cls) + "\n";
    }
    for (const auto& rule : pda.rules()) {
        out += "rule " + std::to_string(rule.from) + " ";
        switch (rule.pre.kind) {
            case pda::PreSpec::Kind::Concrete:
                out += "c " + std::to_string(rule.pre.symbol);
                break;
            case pda::PreSpec::Kind::Class:
                out += "k " + std::to_string(rule.pre.cls);
                break;
            case pda::PreSpec::Kind::Any: out += "a 0"; break;
        }
        switch (rule.op) {
            case pda::Rule::OpKind::Pop: out += " pop "; break;
            case pda::Rule::OpKind::Swap: out += " swap "; break;
            case pda::Rule::OpKind::Push: out += " push "; break;
        }
        write_symbol(out, rule.label1);
        out += " ";
        write_symbol(out, rule.label2);
        out += " " + std::to_string(rule.to) + " " + std::to_string(rule.tag) + "\n";
    }
    return out;
}

pda::Pda parse_moped_format(std::string_view text) {
    LineReader reader(text);
    if (reader.token() != "pds") throw parse_error("moped format: missing 'pds' header");
    const auto state_count = parse_uint(reader.token());
    const auto alphabet = static_cast<pda::Symbol>(parse_uint(reader.token()));
    pda::Pda pda(alphabet);
    pda.add_states(state_count);
    std::vector<pda::SymbolClass> classes;

    while (!reader.at_end()) {
        const auto keyword = reader.token();
        if (keyword == "class") {
            const auto symbol = static_cast<pda::Symbol>(parse_uint(reader.token()));
            const auto cls = static_cast<pda::SymbolClass>(parse_uint(reader.token()));
            AALWINES_ASSERT(symbol < alphabet, "symbol outside the stack alphabet");
            if (classes.size() <= symbol) classes.resize(symbol + 1, pda::k_no_class);
            classes[symbol] = cls;
        } else if (keyword == "rule") {
            pda::Rule rule;
            rule.from = static_cast<pda::StateId>(parse_uint(reader.token()));
            const auto pre_kind = reader.token();
            const auto pre_value = parse_uint(reader.token());
            if (pre_kind == "c")
                rule.pre = pda::PreSpec::concrete(static_cast<pda::Symbol>(pre_value));
            else if (pre_kind == "k")
                rule.pre = pda::PreSpec::of_class(static_cast<pda::SymbolClass>(pre_value));
            else if (pre_kind == "a")
                rule.pre = pda::PreSpec::any();
            else
                throw parse_error("moped format: bad pre kind '" + std::string(pre_kind) + "'");
            const auto op = reader.token();
            if (op == "pop") rule.op = pda::Rule::OpKind::Pop;
            else if (op == "swap") rule.op = pda::Rule::OpKind::Swap;
            else if (op == "push") rule.op = pda::Rule::OpKind::Push;
            else throw parse_error("moped format: bad op '" + std::string(op) + "'");
            rule.label1 = parse_symbol(reader.token());
            rule.label2 = parse_symbol(reader.token());
            rule.to = static_cast<pda::StateId>(parse_uint(reader.token()));
            rule.tag = static_cast<std::uint32_t>(parse_uint(reader.token()));
            pda.add_rule(std::move(rule));
        } else {
            throw parse_error("moped format: unknown keyword '" + std::string(keyword) + "'");
        }
    }
    if (!classes.empty())
        pda.set_symbol_classes(std::make_shared<const pda::SymbolClasses>(std::move(classes)));
    return pda;
}

} // namespace aalwines::verify
