#include "util/json.h"

#include <cmath>

#include "util/check.h"
#include "util/strings.h"

namespace culevo {

std::string JsonWriter::Escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void JsonWriter::MaybeComma() {
  if (needs_comma_) out_.push_back(',');
  needs_comma_ = false;
}

void JsonWriter::BeginObject() {
  MaybeComma();
  out_.push_back('{');
  if (!stack_.empty() && stack_.back() == 'v') stack_.back() = 'o';
  stack_.push_back('o');
}

void JsonWriter::EndObject() {
  CULEVO_CHECK(!stack_.empty() && stack_.back() == 'o');
  stack_.pop_back();
  out_.push_back('}');
  needs_comma_ = true;
}

void JsonWriter::BeginArray() {
  MaybeComma();
  if (!stack_.empty() && stack_.back() == 'v') stack_.back() = 'o';
  stack_.push_back('a');
  out_.push_back('[');
}

void JsonWriter::EndArray() {
  CULEVO_CHECK(!stack_.empty() && stack_.back() == 'a');
  stack_.pop_back();
  out_.push_back(']');
  needs_comma_ = true;
}

void JsonWriter::Key(std::string_view name) {
  CULEVO_CHECK(!stack_.empty() && stack_.back() == 'o');
  MaybeComma();
  out_.push_back('"');
  out_ += Escape(name);
  out_ += "\":";
  stack_.back() = 'v';
  needs_comma_ = false;
}

void JsonWriter::String(std::string_view value) {
  MaybeComma();
  if (!stack_.empty() && stack_.back() == 'v') stack_.back() = 'o';
  out_.push_back('"');
  out_ += Escape(value);
  out_.push_back('"');
  needs_comma_ = true;
}

void JsonWriter::Number(double value) {
  if (!std::isfinite(value)) return Null();  // JSON has no NaN/Inf.
  MaybeComma();
  if (!stack_.empty() && stack_.back() == 'v') stack_.back() = 'o';
  out_ += StrFormat("%.10g", value);
  needs_comma_ = true;
}

void JsonWriter::Int(long long value) {
  MaybeComma();
  if (!stack_.empty() && stack_.back() == 'v') stack_.back() = 'o';
  out_ += StrFormat("%lld", value);
  needs_comma_ = true;
}

void JsonWriter::Bool(bool value) {
  MaybeComma();
  if (!stack_.empty() && stack_.back() == 'v') stack_.back() = 'o';
  out_ += value ? "true" : "false";
  needs_comma_ = true;
}

void JsonWriter::Null() {
  MaybeComma();
  if (!stack_.empty() && stack_.back() == 'v') stack_.back() = 'o';
  out_ += "null";
  needs_comma_ = true;
}

std::string JsonWriter::Take() && {
  CULEVO_CHECK(stack_.empty());
  std::string out = std::move(out_);
  out_.clear();
  needs_comma_ = false;
  return out;
}

}  // namespace culevo
