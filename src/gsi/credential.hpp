// Simulated Grid Security Infrastructure credentials.
//
// The paper's Figure 3 attributes ~0.5 s of every GRAM request to GSI
// mutual authentication.  We reproduce the *structure* (CA-issued identity
// credentials, mutual verification, gridmap authorization) and the *cost*
// (configurable CPU time per operation), with hash-based stand-in
// signatures — cryptographic strength is irrelevant to the experiments
// (DESIGN.md §1).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "simkit/codec.hpp"
#include "simkit/status.hpp"
#include "simkit/time.hpp"

namespace grid::gsi {

/// An identity credential: subject certified by an issuer until expiry.
struct Credential {
  std::string subject;       // e.g. "/O=Grid/CN=alice"
  std::string issuer;        // CA name
  sim::Time not_after = 0;   // expiry (virtual time)
  std::uint64_t signature = 0;

  void encode(util::Writer& w) const;
  static Credential decode(util::Reader& r);

  bool operator==(const Credential&) const = default;
};

/// Issues and verifies credentials.  The "private key" is a secret mixed
/// into a 64-bit FNV-style digest.
class CertificateAuthority {
 public:
  CertificateAuthority(std::string name, std::uint64_t secret);

  const std::string& name() const { return name_; }

  /// Issues a credential for `subject`, valid until `not_after`.
  Credential issue(std::string subject, sim::Time not_after) const;

  /// Verifies issuer, signature, and expiry against `now`.
  util::Status verify(const Credential& cred, sim::Time now) const;

 private:
  std::uint64_t digest(const Credential& cred) const;

  std::string name_;
  std::uint64_t secret_;
};

/// Maps grid subjects to local accounts (the Globus "gridmap" file).
/// Authorization fails for unmapped subjects even when authentication
/// succeeds.
class GridMap {
 public:
  void add(std::string subject, std::string local_user);

  /// The local account for a subject, or an error if unmapped.  A hit
  /// copies no key: the map hashes and compares the view itself.
  util::Result<std::string> lookup(std::string_view subject) const;

 private:
  struct SubjectHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view subject) const {
      return std::hash<std::string_view>{}(subject);
    }
  };
  std::unordered_map<std::string, std::string, SubjectHash, std::equal_to<>>
      map_;
};

}  // namespace grid::gsi
