"""DHT scale-out load rebalancing: ring model, feasibility bounds, fluid simulator.

Import names from their modules (``from dht_rebalance.sim import run``); the
package root loads none of them, so a command imports only what it runs.
"""

__version__ = "0.1.0"
