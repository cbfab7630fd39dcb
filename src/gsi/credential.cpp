#include "gsi/credential.hpp"

namespace grid::gsi {
namespace {

std::uint64_t fnv1a(std::uint64_t h, std::string_view s) {
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

void Credential::encode(util::Writer& w) const {
  w.reserve(26 + subject.size() + issuer.size());
  w.str(subject);
  w.str(issuer);
  w.i64(not_after);
  w.u64(signature);
}

Credential Credential::decode(util::Reader& r) {
  Credential c;
  const std::string_view subject = r.str_view();
  c.subject.assign(subject.begin(), subject.end());
  const std::string_view issuer = r.str_view();
  c.issuer.assign(issuer.begin(), issuer.end());
  c.not_after = r.i64();
  c.signature = r.u64();
  return c;
}

CertificateAuthority::CertificateAuthority(std::string name,
                                           std::uint64_t secret)
    : name_(std::move(name)), secret_(secret) {}

std::uint64_t CertificateAuthority::digest(const Credential& cred) const {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ secret_;
  h = fnv1a(h, cred.subject);
  h = fnv1a(h, cred.issuer);
  h = fnv1a(h, static_cast<std::uint64_t>(cred.not_after));
  return h;
}

Credential CertificateAuthority::issue(std::string subject,
                                       sim::Time not_after) const {
  Credential c;
  c.subject = std::move(subject);
  c.issuer = name_;
  c.not_after = not_after;
  c.signature = digest(c);
  return c;
}

util::Status CertificateAuthority::verify(const Credential& cred,
                                          sim::Time now) const {
  if (cred.issuer != name_) {
    return {util::ErrorCode::kPermissionDenied,
            "credential issued by unknown CA '" + cred.issuer + "'"};
  }
  if (cred.signature != digest(cred)) {
    return {util::ErrorCode::kPermissionDenied,
            "credential signature invalid for '" + cred.subject + "'"};
  }
  if (cred.not_after < now) {
    return {util::ErrorCode::kPermissionDenied,
            "credential expired for '" + cred.subject + "'"};
  }
  return util::Status::ok();
}

void GridMap::add(std::string subject, std::string local_user) {
  map_[std::move(subject)] = std::move(local_user);
}

util::Result<std::string> GridMap::lookup(std::string_view subject) const {
  auto it = map_.find(subject);
  if (it == map_.end()) {
    return util::Status(util::ErrorCode::kPermissionDenied,
                        "subject '" + std::string(subject) +
                            "' not in gridmap");
  }
  return it->second;
}

}  // namespace grid::gsi
