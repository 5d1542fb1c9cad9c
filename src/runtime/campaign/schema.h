// The campaign artifact schema, declared as data.
//
// Every field the campaign runtime reads or writes — across the
// manifest, the per-job entries, the retry policy, the results.jsonl
// record, the attempts.jsonl lines, the state.json view and the final
// reduced document — is catalogued here under a dotted name
// (`manifest.base_seed`, `record.digest`, ...). CAMPAIGNS.md documents
// exactly this catalogue and tests/campaign_doc_test.cpp enforces the
// correspondence both ways, the same contract OBSERVABILITY.md has with
// the obs/ metric catalogue: a field added in code without
// documentation — or documented without existing — is a test failure,
// not a review nit. campaign_test additionally walks real artifacts and
// checks every key they carry resolves to a catalogued name, so the
// catalogue cannot drift from the serializers either.
#pragma once

#include <span>

namespace politewifi::runtime::campaign {

struct SchemaField {
  const char* name;         // dotted: <artifact>.<field>
  const char* description;  // one line
};

/// Every catalogued field of every campaign artifact. Prefixes:
///   manifest.  the campaign manifest document
///   job.       one entry of manifest.jobs
///   policy.    the manifest's fault-handling policy block
///   record.    one results.jsonl line
///   attempt.   one attempts.jsonl line: the header, then events
///   state.     the state.json view written at the driver's exit
///   state.jobs.  one per-job entry of state.jobs
///   doc.       the final reduced campaign document
std::span<const SchemaField> campaign_schema();

/// True when `dotted` names a catalogued field.
bool is_campaign_schema_field(const char* dotted);

}  // namespace politewifi::runtime::campaign
