#include "support/argparse.h"

#include <sstream>

#include "support/errors.h"
#include "support/strings.h"

namespace phls {

void arg_parser::add_flag(const std::string& name, const std::string& short_name,
                          const std::string& help)
{
    spec s;
    s.name = name;
    s.short_name = short_name;
    s.help = help;
    s.is_flag = true;
    specs_.push_back(std::move(s));
}

void arg_parser::add_option(const std::string& name, const std::string& short_name,
                            const std::string& help, const std::string& fallback)
{
    spec s;
    s.name = name;
    s.short_name = short_name;
    s.help = help;
    s.fallback = fallback;
    specs_.push_back(std::move(s));
}

arg_parser::spec* arg_parser::find(const std::string& token)
{
    for (spec& s : specs_)
        if (token == s.name || (!s.short_name.empty() && token == s.short_name)) return &s;
    return nullptr;
}

const arg_parser::spec* arg_parser::find_registered(const std::string& name) const
{
    for (const spec& s : specs_)
        if (name == s.name || (!s.short_name.empty() && name == s.short_name)) return &s;
    return nullptr;
}

bool arg_parser::parse(const std::vector<std::string>& args)
{
    error_.clear();
    positionals_.clear();
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& token = args[i];
        if (token.size() >= 1 && token[0] == '-' && token != "-") {
            // Support --name=value in one token.
            const std::size_t eq = token.find('=');
            const std::string name = eq == std::string::npos ? token : token.substr(0, eq);
            spec* s = find(name);
            if (!s) {
                error_ = "unknown option '" + name + "'";
                return false;
            }
            s->present = true;
            if (s->is_flag) {
                if (eq != std::string::npos) {
                    error_ = "flag '" + name + "' does not take a value";
                    return false;
                }
                continue;
            }
            if (eq != std::string::npos) {
                s->value = token.substr(eq + 1);
            } else {
                if (i + 1 >= args.size()) {
                    error_ = "option '" + name + "' needs a value";
                    return false;
                }
                s->value = args[++i];
            }
        } else {
            positionals_.push_back(token);
        }
    }
    return true;
}

bool arg_parser::has(const std::string& name) const
{
    const spec* s = find_registered(name);
    if (!s) throw phls::error("argparse: '" + name + "' was never registered");
    return s->present;
}

std::string arg_parser::get(const std::string& name) const
{
    const spec* s = find_registered(name);
    if (!s) throw phls::error("argparse: '" + name + "' was never registered");
    if (s->is_flag) throw phls::error("argparse: '" + name + "' is a flag, not an option");
    return s->present ? s->value : s->fallback;
}

int arg_parser::get_int(const std::string& name) const
{
    return parse_int(get(name), name);
}

double arg_parser::get_double(const std::string& name) const
{
    return parse_double(get(name), name);
}

std::string arg_parser::usage() const
{
    std::ostringstream os;
    os << "usage: " << program_ << " [options]\n";
    for (const spec& s : specs_) {
        os << "  " << s.name;
        if (!s.short_name.empty()) os << ", " << s.short_name;
        if (!s.is_flag) os << " <value>";
        os << "  " << s.help;
        if (!s.is_flag && !s.fallback.empty()) os << " (default: " << s.fallback << ")";
        os << '\n';
    }
    return os.str();
}

} // namespace phls
