// Fixture: a tool fanning work out to other threads while the keystore,
// registry and logger are unsynchronised — must FAIL single-thread, once
// per line that starts a thread.
void drain_backlog(std::vector<Item>& items) {
  std::thread worker([&] { check_all(items); });
  std::jthread helper([&] { check_all(items); });
  auto pending = std::async(std::launch::async, [&] { check_all(items); });
  pthread_t raw;
  pthread_create(&raw, nullptr, &check_entry, &items);
}
