#include "util/table.hh"

#include <algorithm>
#include <cstdio>

#include "obs/log.hh"

namespace hr
{

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
csvQuote(const std::string &s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    return out + "\"";
}

std::string
jsonNum(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    fatalIf(cells.size() != headers_.size(), "Table: row arity mismatch");
    rows_.push_back(std::move(cells));
}

std::string
Table::num(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
Table::integer(long long v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", v);
    return buf;
}

std::string
Table::render() const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto renderRow = [&](const std::vector<std::string> &row) {
        std::string line;
        for (std::size_t c = 0; c < row.size(); ++c) {
            line += row[c];
            line.append(widths[c] - row[c].size() + 2, ' ');
        }
        while (!line.empty() && line.back() == ' ')
            line.pop_back();
        return line + "\n";
    };

    std::string out = renderRow(headers_);
    std::size_t rule = 0;
    for (std::size_t w : widths)
        rule += w + 2;
    out += std::string(rule > 2 ? rule - 2 : rule, '-') + "\n";
    for (const auto &row : rows_)
        out += renderRow(row);
    return out;
}

std::string
Table::renderJson() const
{
    std::string out = "[";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        out += r == 0 ? "\n" : ",\n";
        out += "  {";
        for (std::size_t c = 0; c < headers_.size(); ++c) {
            if (c > 0)
                out += ", ";
            out += jsonQuote(headers_[c]) + ": " + jsonQuote(rows_[r][c]);
        }
        out += "}";
    }
    out += rows_.empty() ? "]" : "\n]";
    return out;
}

std::string
Table::renderCsv() const
{
    auto line = [](const std::vector<std::string> &cells) {
        std::string out;
        for (std::size_t c = 0; c < cells.size(); ++c) {
            if (c > 0)
                out += ',';
            out += csvQuote(cells[c]);
        }
        return out + "\n";
    };
    std::string out = line(headers_);
    for (const auto &row : rows_)
        out += line(row);
    return out;
}

void
Table::print() const
{
    std::fputs(render().c_str(), stdout);
}

Series::Series(std::string name, std::string x_label, std::string y_label)
    : name_(std::move(name)), xLabel_(std::move(x_label)),
      yLabel_(std::move(y_label))
{
}

void
Series::add(double x, double y)
{
    xs_.push_back(x);
    ys_.push_back(y);
}

std::string
Series::render() const
{
    std::string out = "# series: " + name_ + "\n";
    out += "# " + xLabel_ + "\t" + yLabel_ + "\n";
    char line[96];
    for (std::size_t i = 0; i < xs_.size(); ++i) {
        std::snprintf(line, sizeof(line), "%14.4f %14.4f\n", xs_[i], ys_[i]);
        out += line;
    }
    return out;
}

std::string
Series::renderJson() const
{
    std::string out = "{";
    out += "\"name\": " + jsonQuote(name_);
    out += ", \"x_label\": " + jsonQuote(xLabel_);
    out += ", \"y_label\": " + jsonQuote(yLabel_);
    out += ", \"points\": [";
    for (std::size_t i = 0; i < xs_.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += "[" + jsonNum(xs_[i]) + ", " + jsonNum(ys_[i]) + "]";
    }
    return out + "]}";
}

std::string
Series::renderCsv() const
{
    std::string out = csvQuote(xLabel_) + "," + csvQuote(yLabel_) + "\n";
    for (std::size_t i = 0; i < xs_.size(); ++i)
        out += jsonNum(xs_[i]) + "," + jsonNum(ys_[i]) + "\n";
    return out;
}

void
Series::print() const
{
    std::fputs(render().c_str(), stdout);
}

} // namespace hr
