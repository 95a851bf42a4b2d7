// Fixture: the observability layer records from inside the event loop, so
// the sim-static rule covers src/obs/ too — a mutable static ordinal races
// once --jobs pool threads run worlds concurrently.
unsigned long long nextSpanOrdinal() {
  static unsigned long long ordinal = 0;
  return ++ordinal;
}
