// Fixture: rpc-direct-exchange (seeded violation on line 4).
namespace qres {
void relay(IControlTransport* transport, HostId from, HostId to, double now) {
  transport->exchange(from, to, now, nullptr);
}
}  // namespace qres
