// Fixture: batch verification poking VerifyCache directly instead of
// going through Keystore::verify_cached — must FAIL raw-verify.
void flush_batch(const Keystore& ks_, std::vector<Item>& items) {
  const VerifyCache& cache = ks_.verify_cache();
  for (auto& it : items) {
    it.ok = cache.lookup(VerifyCache::make_key(it.signer, it.msg, it.sig));
  }
}
