#include "speed.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>
#include <random>
#include <sstream>
#include <vector>

namespace bench {

namespace {

std::string number(std::mt19937_64& rng, double lo, double hi) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", std::uniform_real_distribution<double>(lo, hi)(rng));
    return buf;
}

double text_pass(const std::string& text) {
    std::istringstream in(text);
    std::string line;
    std::vector<double> values;
    while (std::getline(in, line)) {
        const char* p = line.data();
        const char* const end = p + line.size();
        while (p < end) {
            double v = 0.0;
            const auto parsed = std::from_chars(p, end, v);
            if (parsed.ec != std::errc()) break;
            values.push_back(v);
            p = parsed.ptr;
            while (p < end && *p == ' ') ++p;
        }
    }
    double sum = 0.0;
    for (const double v : values) sum += std::pow(v, 1.5) * std::log2(v);
    return sum;
}

double json_pass(const std::string& doc) {
    double sum = 0.0;
    for (int repeat = 0; repeat < 10; ++repeat) {
        std::map<std::string, std::vector<double>> fields;
        std::string key;
        const char* p = doc.data();
        const char* const end = p + doc.size();
        while (p < end) {
            if (*p == '"') {
                const char* close = std::find(p + 1, end, '"');
                key.assign(p + 1, close);
                p = close + 1;
            } else if ((*p >= '0' && *p <= '9') || *p == '-') {
                double v = 0.0;
                p = std::from_chars(p, end, v).ptr;
                fields[key].push_back(v);
            } else {
                ++p;
            }
        }
        for (const auto& [name, values] : fields) {
            for (const double v : values) sum += std::pow(v + 1.0, 1.5) * std::log2(v + 2.0);
        }
    }
    return sum;
}

}  // namespace

SpeedReference text_reference() {
    std::mt19937_64 rng(2021);
    std::string text;
    for (int line = 0; line < 256; ++line) {
        for (int k = 0; k < 8; ++k) text += number(rng, 1.0, 1e6) + (k < 7 ? " " : "\n");
    }
    return {text, text_pass, 0.103};
}

SpeedReference json_reference() {
    std::mt19937_64 rng(7);
    std::string doc = "{";
    for (int term = 0; term < 40; ++term) {
        doc += "\"term_" + std::to_string(term) + "\": {\"coefficient\": " + number(rng, 0.0, 4.0) +
               ", \"exponents\": [";
        for (int e = 0; e < 3; ++e) doc += number(rng, 0.0, 4.0) + (e < 2 ? ", " : "]}, ");
    }
    doc += "\"end\": 1}";
    return {doc, json_pass, 0.110};
}

}  // namespace bench
