// CAMPAIGNS.md <-> campaign schema catalogue contract, both ways: the
// doc must name every catalogued artifact field, and every dotted
// field the doc names must exist in the catalogue
// (src/runtime/campaign/schema.cpp). Mirrors the OBSERVABILITY.md /
// obs catalogue discipline in obs_test.cpp, so schema drift — a field
// added in code but never documented, or documentation for a field
// that was renamed away — fails a test instead of rotting quietly.
#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "runtime/campaign/schema.h"

namespace politewifi::runtime::campaign {
namespace {

std::string read_repo_file(const std::string& rel) {
  const std::string path = std::string(PW_REPO_ROOT) + "/" + rel;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

constexpr const char* kPrefixes[] = {"manifest.", "job.",   "policy.",
                                     "record.",   "attempt.", "state.",
                                     "doc."};

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Backtick-quoted dotted identifiers under the artifact prefixes —
/// the doc's way of naming a schema field. File names (`manifest.json`,
/// `state.json`) share the prefix shape and are excluded by their
/// extension.
std::set<std::string> doc_field_names(const std::string& doc) {
  std::set<std::string> found;
  std::size_t pos = 0;
  while ((pos = doc.find('`', pos)) != std::string::npos) {
    const std::size_t end = doc.find('`', pos + 1);
    if (end == std::string::npos) break;
    const std::string token = doc.substr(pos + 1, end - pos - 1);
    pos = end + 1;
    if (token.find('.') == std::string::npos) continue;
    if (ends_with(token, ".json") || ends_with(token, ".jsonl")) continue;
    bool identifier = true;
    for (const char c : token) {
      if (!(std::islower(static_cast<unsigned char>(c)) ||
            std::isdigit(static_cast<unsigned char>(c)) || c == '.' ||
            c == '_')) {
        identifier = false;
        break;
      }
    }
    if (!identifier) continue;
    for (const char* prefix : kPrefixes) {
      if (token.rfind(prefix, 0) == 0) {
        found.insert(token);
        break;
      }
    }
  }
  return found;
}

TEST(CampaignDoc, CatalogueIsWellFormed) {
  std::set<std::string> seen;
  for (const SchemaField& field : campaign_schema()) {
    EXPECT_TRUE(seen.insert(field.name).second)
        << "duplicate schema field " << field.name;
    EXPECT_NE(field.description[0], '\0')
        << field.name << " has no description";
    bool prefixed = false;
    for (const char* prefix : kPrefixes) {
      prefixed |= std::string(field.name).rfind(prefix, 0) == 0;
    }
    EXPECT_TRUE(prefixed) << field.name << " is outside every artifact "
                          << "prefix campaign_doc_test knows";
    EXPECT_TRUE(is_campaign_schema_field(field.name));
  }
  EXPECT_FALSE(is_campaign_schema_field("manifest.nonexistent"));
}

TEST(CampaignDoc, CampaignsMdListsEverySchemaField) {
  const std::string doc = read_repo_file("CAMPAIGNS.md");
  ASSERT_FALSE(doc.empty());
  for (const SchemaField& field : campaign_schema()) {
    EXPECT_NE(doc.find("`" + std::string(field.name) + "`"),
              std::string::npos)
        << "CAMPAIGNS.md does not document `" << field.name << "`";
  }
}

TEST(CampaignDoc, CampaignsMdNamesOnlySchemaFields) {
  const std::string doc = read_repo_file("CAMPAIGNS.md");
  for (const std::string& token : doc_field_names(doc)) {
    EXPECT_TRUE(is_campaign_schema_field(token.c_str()))
        << "CAMPAIGNS.md names `" << token
        << "` which is not in the campaign schema catalogue";
  }
}

}  // namespace
}  // namespace politewifi::runtime::campaign
