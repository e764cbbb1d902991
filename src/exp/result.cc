#include "exp/result.hh"

#include "obs/log.hh"

namespace hr
{

Format
formatFromName(const std::string &name)
{
    if (name == "table")
        return Format::Table;
    if (name == "json")
        return Format::Json;
    if (name == "csv")
        return Format::Csv;
    fatal("unknown output format '" + name + "' (table, json, csv)");
}

std::string
formatName(Format format)
{
    switch (format) {
      case Format::Table: return "table";
      case Format::Json: return "json";
      case Format::Csv: return "csv";
    }
    return "?";
}

void
ResultTable::setScenario(std::string name, std::string title,
                         std::string paper_claim)
{
    name_ = std::move(name);
    title_ = std::move(title);
    paperClaim_ = std::move(paper_claim);
}

void
ResultTable::addMeta(std::string key, std::string value)
{
    meta_.emplace_back(std::move(key), std::move(value));
}

void
ResultTable::addTable(std::string title, Table table)
{
    tables_.emplace_back(std::move(title), std::move(table));
}

void
ResultTable::addSeries(Series series)
{
    series_.push_back(std::move(series));
}

void
ResultTable::addHistogram(std::string title, Histogram histogram)
{
    histograms_.emplace_back(std::move(title), std::move(histogram));
}

void
ResultTable::addMetric(std::string name, double value, std::string paper)
{
    metrics_.push_back({std::move(name), value, std::move(paper)});
}

void
ResultTable::addCheck(std::string name, bool passed)
{
    checks_.push_back({std::move(name), passed});
}

void
ResultTable::addNote(std::string text)
{
    notes_.push_back(std::move(text));
}

bool
ResultTable::passed() const
{
    for (const auto &check : checks_)
        if (!check.passed)
            return false;
    return true;
}

std::string
ResultTable::render(Format format) const
{
    switch (format) {
      case Format::Table: return renderTable();
      case Format::Json: return renderJson();
      case Format::Csv: return renderCsv();
    }
    return "";
}

std::string
ResultTable::renderTable() const
{
    std::string out = "== " + title_ + " ==\n";
    if (!paperClaim_.empty())
        out += "paper: " + paperClaim_ + "\n";
    for (const auto &[key, value] : meta_)
        out += key + ": " + value + "\n";
    out += "\n";
    for (const auto &[title, table] : tables_) {
        if (!title.empty())
            out += title + "\n";
        out += table.render() + "\n";
    }
    for (const auto &series : series_)
        out += series.render() + "\n";
    for (const auto &[title, histogram] : histograms_) {
        if (!title.empty())
            out += title + "\n";
        out += histogram.render(40) + "\n";
    }
    for (const auto &metric : metrics_) {
        out += metric.name + ": " + jsonNum(metric.value);
        if (!metric.paper.empty())
            out += " (paper: " + metric.paper + ")";
        out += "\n";
    }
    for (const auto &note : notes_)
        out += "note: " + note + "\n";
    if (!checks_.empty()) {
        out += "\n";
        for (const auto &check : checks_)
            out += std::string(check.passed ? "[ok]   " : "[FAIL] ") +
                   check.name + "\n";
        out += std::string("result: ") +
               (passed() ? "PASS" : "FAIL") + "\n";
    }
    return out;
}

std::string
ResultTable::renderJson() const
{
    std::string out = "{\n";
    out += "  \"scenario\": " + jsonQuote(name_) + ",\n";
    out += "  \"title\": " + jsonQuote(title_) + ",\n";
    out += "  \"paper_claim\": " + jsonQuote(paperClaim_) + ",\n";
    out += "  \"meta\": {";
    for (std::size_t i = 0; i < meta_.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += jsonQuote(meta_[i].first) + ": " + jsonQuote(meta_[i].second);
    }
    out += "},\n";
    out += "  \"tables\": [";
    for (std::size_t i = 0; i < tables_.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += "{\"title\": " + jsonQuote(tables_[i].first) +
               ", \"rows\": " + tables_[i].second.renderJson() + "}";
    }
    out += "],\n";
    out += "  \"series\": [";
    for (std::size_t i = 0; i < series_.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += series_[i].renderJson();
    }
    out += "],\n";
    out += "  \"histograms\": [";
    for (std::size_t i = 0; i < histograms_.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += "{\"title\": " + jsonQuote(histograms_[i].first) +
               ", \"histogram\": " + histograms_[i].second.renderJson() +
               "}";
    }
    out += "],\n";
    out += "  \"metrics\": [";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += "{\"name\": " + jsonQuote(metrics_[i].name) +
               ", \"value\": " + jsonNum(metrics_[i].value) +
               ", \"paper\": " + jsonQuote(metrics_[i].paper) + "}";
    }
    out += "],\n";
    out += "  \"notes\": [";
    for (std::size_t i = 0; i < notes_.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += jsonQuote(notes_[i]);
    }
    out += "],\n";
    out += "  \"checks\": [";
    for (std::size_t i = 0; i < checks_.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += "{\"name\": " + jsonQuote(checks_[i].name) +
               ", \"passed\": " + (checks_[i].passed ? "true" : "false") +
               "}";
    }
    out += "],\n";
    out += std::string("  \"passed\": ") + (passed() ? "true" : "false") +
           "\n}\n";
    return out;
}

std::string
ResultTable::renderCsv() const
{
    std::string out = "# scenario: " + name_ + "\n";
    for (const auto &[key, value] : meta_)
        out += "# " + key + ": " + value + "\n";
    for (const auto &[title, table] : tables_) {
        out += "# table: " + (title.empty() ? "results" : title) + "\n";
        out += table.renderCsv();
    }
    for (const auto &series : series_) {
        out += "# series: " + series.name() + "\n";
        out += series.renderCsv();
    }
    for (const auto &[title, histogram] : histograms_) {
        out += "# histogram: " + title + "\n";
        out += histogram.renderCsv();
    }
    if (!metrics_.empty()) {
        out += "# table: metrics\nmetric,value,paper\n";
        for (const auto &metric : metrics_)
            out += csvQuote(metric.name) + "," + jsonNum(metric.value) +
                   "," + csvQuote(metric.paper) + "\n";
    }
    if (!checks_.empty()) {
        out += "# table: checks\ncheck,passed\n";
        for (const auto &check : checks_)
            out += csvQuote(check.name) + "," +
                   (check.passed ? "true" : "false") + "\n";
    }
    return out;
}

} // namespace hr
