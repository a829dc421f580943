// analyze-fixture: path=src/sim/request_pool.h rule=naked-new expect=clean
// Pool implementations are the sanctioned home for raw allocation.
inline void* grab(unsigned n) { return new char[n]; }
